"""Two-phase iterative training: fit an amplifier model, train the DPD through it.

Each outer iteration transmits the current predistorter's output through the
real (simulated) amplifier, refits a dense-network amplifier model from the
observed input/output pairs, and then refines the predistorter by
backpropagating through the frozen model toward a unit-gain cascade. The
amplifier is only ever touched through its ``apply`` method — training sees
signal pairs, never coefficients.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DivergenceError, _require_integer, _require_real
from .nn import (
    DenseNet,
    NnWorkspace,
    glorot_net,
    nn_backward,
    nn_backward_through_frozen,
    nn_forward,
)
from .ofdm import OfdmConfig, generate_ofdm
from .signals import IqSignal, estimate_gain

__all__ = [
    "DEFAULT_PA_MODEL_SHAPE",
    "TrainConfig",
    "TrainRecord",
    "TrainLog",
    "AdamState",
    "adam_step",
    "train_pa_nn",
    "train_dpd_nn",
    "run_full_training",
]

#: Adam's moment decay rates and denominator guard (the Kingma & Ba defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    outer_iterations: int = 2
    epochs_per_iteration: tuple[int, ...] = (20, 5)
    learning_rate: float = 1e-3
    batch_size: int = 1024
    train_symbols: int = 10
    val_symbols: int = 10
    seed: int = 0

    def __post_init__(self):
        epochs = self.epochs_per_iteration
        # tuple() would split a string such as "20,5" into its characters
        if isinstance(epochs, (str, bytes)) or not isinstance(epochs, (Sequence, np.ndarray)):
            raise ConfigurationError(
                f"epochs_per_iteration must be a list of integers, got {epochs!r}",
                "epochs_per_iteration",
            )
        object.__setattr__(self, "epochs_per_iteration", tuple(epochs))
        # a float or string count fails here, not inside a sweep row;
        # 0 iterations is allowed: run_full_training then returns the passthrough net
        _require_integer("outer_iterations", self.outer_iterations, 0)
        for e in self.epochs_per_iteration:
            _require_integer("epochs_per_iteration", e, 1)
        if len(self.epochs_per_iteration) != self.outer_iterations:
            raise ConfigurationError(
                f"epochs_per_iteration has {len(self.epochs_per_iteration)} entries "
                f"for {self.outer_iterations} iterations",
                "epochs_per_iteration",
            )
        _require_real("learning_rate", self.learning_rate, positive=True)
        for name in ("batch_size", "train_symbols", "val_symbols"):
            _require_integer(name, getattr(self, name), 1)
        _require_integer("seed", self.seed, 0)


@dataclass(frozen=True)
class TrainRecord:
    iteration: int
    phase: str
    epoch: int
    train_mse: float
    val_mse: float


@dataclass
class TrainLog:
    records: list[TrainRecord] = field(default_factory=list)

    def append(self, record: TrainRecord) -> None:
        if not (np.isfinite(record.train_mse) and np.isfinite(record.val_mse)):
            raise DivergenceError(f"non-finite loss in {record.phase} epoch {record.epoch}")
        self.records.append(record)


@dataclass
class AdamState:
    """Adam's first and second moments, flat in the layout of ``DenseNet.flat``."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def fresh(cls, net: DenseNet) -> "AdamState":
        """Zero moments for ``net``."""
        return cls(m=np.zeros(net.flat.size), v=np.zeros(net.flat.size))


def adam_step(net: DenseNet, grads: DenseNet, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, in place on the net and state.

    Raises:
        DivergenceError: if any gradient entry is non-finite.
    """
    g = grads.flat
    if not np.isfinite(g).all():
        raise DivergenceError("non-finite gradient; aborting the training phase")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    m, v, params = state.m, state.v, net.flat
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * g * g
    params -= cfg.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)


def _mse(a: np.ndarray, b: np.ndarray) -> float:
    err = a - b
    return float((np.mean(err.real**2) + np.mean(err.imag**2)) / 2.0)


def _run_epochs(step_fn, eval_fn, net, cfg, epochs, n_samples, *, iteration, phase, log, rng):
    """Shared mini-batch loop: shuffle, step, and log one row per epoch; trains net in place.

    ``step_fn(batch, workspace)`` returns a minibatch's (loss, gradients), and
    ``eval_fn(net, workspace)`` the held-out score. The phase has one helper
    thread, which runs two kinds of task in the order they are queued: it
    draws each epoch's ``rng.permutation`` one epoch ahead, and it scores a
    copy of the net as each epoch left it while later epochs' steps run on
    the calling thread. Each thread has its own workspace, and nothing else
    may draw from ``rng``. Once the steps end, or a step raises, the rows are
    appended in epoch order as their scores are joined. So the first failing
    score is raised, its own exception or its row's DivergenceError, before
    a step's error: the order a loop that scores each epoch before the next
    raises them in. The helper is shut down, and its thread joined, before
    the loop returns or raises.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, as in harness.run_sweep

    state = AdamState.fresh(net)
    steps, scores = NnWorkspace(), NnWorkspace()
    queued = []  # (epoch, train_mse, score future) per epoch
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="dpdkit-train") as helper:
        next_order = helper.submit(rng.permutation, n_samples)
        try:
            for epoch in range(1, epochs + 1):
                order = next_order.result()
                if epoch < epochs:
                    next_order = helper.submit(rng.permutation, n_samples)
                weighted = 0.0
                for start in range(0, n_samples, cfg.batch_size):
                    batch = order[start : start + cfg.batch_size]
                    loss, grads = step_fn(batch, steps)
                    adam_step(net, grads, state, cfg)
                    weighted += loss * len(batch)
                snapshot = DenseNet(net.hidden_layers, net.width, net.weights, net.biases)
                queued.append((epoch, weighted / n_samples,
                               helper.submit(eval_fn, snapshot, scores)))
        finally:
            for epoch, train_mse, score in queued:
                log.append(TrainRecord(iteration, phase, epoch, train_mse, score.result()))


def train_pa_nn(
    pairs: tuple[IqSignal, IqSignal],
    net: DenseNet,
    cfg: TrainConfig,
    *,
    val_pairs: tuple[IqSignal, IqSignal],
    epochs: int,
    iteration: int,
    log: TrainLog,
) -> tuple[DenseNet, TrainLog]:
    """Fit the amplifier model net to (input, gain-normalized output) pairs.

    ``pairs`` is (x̂, y/G) and ``val_pairs`` the held-out pair each epoch is
    scored on. ``iteration`` seeds the shuffle and tags the rows appended to
    ``log``.
    """
    x_hat, y_norm = pairs
    if len(x_hat) != len(y_norm):
        raise ConfigurationError(f"pair length mismatch: {len(x_hat)} vs {len(y_norm)}")
    rng = np.random.default_rng([cfg.seed, 10 + iteration, 0])

    def step(batch, workspace):
        return nn_backward(
            net,
            IqSignal(x_hat.samples[batch], x_hat.sample_rate_hz),
            IqSignal(y_norm.samples[batch], y_norm.sample_rate_hz),
            workspace=workspace,
        )

    def evaluate(scored, workspace):
        out = nn_forward(scored, val_pairs[0], workspace=workspace)
        return _mse(out.samples, val_pairs[1].samples)

    _run_epochs(step, evaluate, net, cfg, epochs, len(x_hat),
                iteration=iteration, phase="pa_model", log=log, rng=rng)
    return net, log


def train_dpd_nn(
    dpd: DenseNet,
    pa_model: DenseNet,
    x: IqSignal,
    cfg: TrainConfig,
    *,
    x_val: IqSignal,
    epochs: int,
    iteration: int,
    log: TrainLog,
) -> tuple[DenseNet, TrainLog]:
    """Refine the predistorter through the frozen amplifier model.

    Minimizes the MSE between pa_model(dpd(x)) and x itself; only the
    predistorter is updated. ``x_val`` is the held-out frame each epoch is
    scored on; ``iteration`` and ``log`` are as in ``train_pa_nn``.
    """
    rng = np.random.default_rng([cfg.seed, 10 + iteration, 1])

    def step(batch, workspace):
        return nn_backward_through_frozen(
            dpd, pa_model, IqSignal(x.samples[batch], x.sample_rate_hz), workspace=workspace
        )

    def evaluate(scored, workspace):
        cascade = nn_forward(
            pa_model, nn_forward(scored, x_val, workspace=workspace), workspace=workspace
        )
        return _mse(cascade.samples, x_val.samples)

    _run_epochs(step, evaluate, dpd, cfg, epochs, len(x),
                iteration=iteration, phase="dpd", log=log, rng=rng)
    return dpd, log


#: Default (hidden_layers, width) for the amplifier model. It is wider than
#: the predistorters on purpose: its accuracy bounds what a predistorter can
#: learn, and its multiplies never ship — only the predistorter runs at the
#: transmitter, so only its shape shows up in the complexity accounting.
DEFAULT_PA_MODEL_SHAPE = (2, 24)


def run_full_training(
    pa,
    shapes: tuple[tuple[int, int], tuple[int, int]],
    cfg: TrainConfig,
    frames: tuple[OfdmConfig, OfdmConfig],
) -> tuple[DenseNet, TrainLog]:
    """The full iterative procedure; returns the final predistorter and log.

    ``shapes`` is a pair ((dpd_hidden_layers, dpd_width),
    (model_hidden_layers, model_width)), and ``frames`` the (training,
    held-out) frame configs, such as ``ExperimentSpec.frames()`` gives.
    Iteration 1 transmits the raw frame; later iterations transmit the
    current predistorter's output, so the model sees the amplifier in the
    region the predistorter actually drives. With zero outer iterations the
    predistorter is the passthrough ``DenseNet.zeros`` and no frame is built.
    """
    dpd_shape, model_shape = shapes
    if cfg.outer_iterations == 0:
        return DenseNet.zeros(*dpd_shape), TrainLog()
    _, x_train = generate_ofdm(frames[0])
    _, x_val = generate_ofdm(frames[1])

    pa_net = glorot_net(*model_shape, seed=[cfg.seed, 0])
    dpd = glorot_net(*dpd_shape, seed=[cfg.seed, 5])
    log = TrainLog()

    for iteration in range(1, cfg.outer_iterations + 1):
        epochs = cfg.epochs_per_iteration[iteration - 1]
        if iteration == 1:
            x_hat, x_hat_val = x_train, x_val
        else:
            x_hat, x_hat_val = nn_forward(dpd, x_train), nn_forward(dpd, x_val)
        y = pa.apply(x_hat)
        y_val = pa.apply(x_hat_val)
        g = estimate_gain(x_hat, y)
        y_norm = IqSignal(y.samples / g, y.sample_rate_hz)
        y_val_norm = IqSignal(y_val.samples / g, y_val.sample_rate_hz)
        del y, y_val  # the model phase reads only their normalized copies

        pa_net, _ = train_pa_nn(
            (x_hat, y_norm), pa_net, cfg,
            val_pairs=(x_hat_val, y_val_norm),
            epochs=epochs, iteration=iteration, log=log,
        )
        del x_hat, x_hat_val, y_norm, y_val_norm  # the predistorter phase reads the raw frames
        dpd, _ = train_dpd_nn(
            dpd, pa_net, x_train, cfg,
            x_val=x_val, epochs=epochs, iteration=iteration, log=log,
        )
    return dpd, log
