"""Two-phase iterative training: fit an amplifier model, train the DPD through it.

Each outer iteration transmits the current predistorter's output through the
real (simulated) amplifier, refits a dense-network amplifier model from the
observed input/output pairs, and then refines the predistorter by
backpropagating through the frozen model toward a unit-gain cascade. The
amplifier is only ever touched through its ``apply`` method — training sees
signal pairs, never coefficients.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import astuple, dataclass, field, replace

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
from .signals import IqSignal, estimate_gain, _write_lines

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
        # a float or string count fails here, not inside a sweep row
        for name in ("outer_iterations", "batch_size", "train_symbols", "val_symbols", "seed"):
            _require_integer(name, getattr(self, name))
        for e in self.epochs_per_iteration:
            _require_integer("epochs_per_iteration", e)
        _require_real("learning_rate", self.learning_rate)
        # 0 is allowed: run_full_training then returns the passthrough net
        if self.outer_iterations < 0:
            raise ConfigurationError(f"outer_iterations must be >= 0, got {self.outer_iterations}")
        if len(self.epochs_per_iteration) != self.outer_iterations:
            raise ConfigurationError(
                f"epochs_per_iteration has {len(self.epochs_per_iteration)} entries "
                f"for {self.outer_iterations} iterations"
            )
        if any(e < 1 for e in self.epochs_per_iteration):
            raise ConfigurationError("every epoch count must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate}",
                                     "learning_rate")
        if self.batch_size < 1 or self.train_symbols < 1 or self.val_symbols < 1:
            raise ConfigurationError("batch_size and symbol counts must be positive")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")


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

    def to_csv(self, path) -> None:
        _write_lines(path, ["iteration,phase,epoch,train_mse,val_mse"], map(astuple, self.records))


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


def _score_in_background(eval_fn, net: DenseNet):
    """Start ``eval_fn`` on a copy of ``net`` on one helper thread; return its join.

    The join waits for the thread and returns the score, or raises what
    ``eval_fn`` raised.
    """
    snapshot = DenseNet(net.hidden_layers, net.width, net.weights, net.biases)
    outcome = []

    def score():
        try:
            outcome.append((eval_fn(snapshot), None))
        except BaseException as exc:
            outcome.append((None, exc))

    thread = threading.Thread(target=score, name="dpdkit-score")
    thread.start()

    def join() -> float:
        thread.join()
        value, exc = outcome[0]
        if exc is not None:
            raise exc
        return value

    return join


def _run_epochs(step_fn, eval_fn, net, cfg, epochs, n_samples, *, iteration, phase, log, rng):
    """Shared mini-batch loop: shuffle, step, and log one row per epoch.

    ``eval_fn(net)`` is the held-out score. Each epoch's score runs on one
    helper thread, on a copy of the net as that epoch left it, while the
    next epoch's steps run on the calling thread; ``eval_fn`` must touch no
    buffer that ``step_fn`` does. An epoch's row is appended after the next
    epoch's steps, so the log keeps epoch order, and the last score is
    joined before the loop returns. If a step raises while a score is in
    flight, the score is joined first, and the first of these is raised: the
    score's own exception, its row's DivergenceError, the step's error. That
    is the order a loop that scores each epoch before the next raises them in.
    """
    state = AdamState.fresh(net)
    scoring = None  # (join, row fields) of the epoch whose score is in flight

    def log_scored():
        nonlocal scoring
        (join, fields), scoring = scoring, None
        log.append(TrainRecord(**fields, val_mse=join()))

    try:
        for epoch in range(1, epochs + 1):
            order = rng.permutation(n_samples)
            weighted = 0.0
            for start in range(0, n_samples, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                loss, grads = step_fn(batch)
                adam_step(net, grads, state, cfg)
                weighted += loss * len(batch)
            if scoring is not None:
                log_scored()
            fields = dict(iteration=iteration, phase=phase, epoch=epoch,
                          train_mse=weighted / n_samples)
            scoring = (_score_in_background(eval_fn, net), fields)
    finally:
        if scoring is not None:
            log_scored()
    return net


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
    workspace = NnWorkspace()

    def step(batch):
        return nn_backward(
            net,
            IqSignal(x_hat.samples[batch], x_hat.sample_rate_hz),
            IqSignal(y_norm.samples[batch], y_norm.sample_rate_hz),
            workspace=workspace,
        )

    def evaluate(scored):
        out = nn_forward(scored, val_pairs[0], workspace=workspace)
        return _mse(out.samples, val_pairs[1].samples)

    net = _run_epochs(
        step, evaluate, net, cfg, epochs, len(x_hat),
        iteration=iteration, phase="pa_model", log=log, rng=rng,
    )
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
    workspace = NnWorkspace()

    def step(batch):
        return nn_backward_through_frozen(
            dpd, pa_model, IqSignal(x.samples[batch], x.sample_rate_hz), workspace=workspace
        )

    def evaluate(scored):
        cascade = nn_forward(
            pa_model, nn_forward(scored, x_val, workspace=workspace), workspace=workspace
        )
        return _mse(cascade.samples, x_val.samples)

    dpd = _run_epochs(
        step, evaluate, dpd, cfg, epochs, len(x),
        iteration=iteration, phase="dpd", log=log, rng=rng,
    )
    return dpd, log


#: Default (hidden_layers, width) for the amplifier model. It is wider than
#: the predistorters on purpose: its accuracy bounds what a predistorter can
#: learn, and its multiplies never ship — only the predistorter runs at the
#: transmitter, so only its shape shows up in the complexity accounting.
DEFAULT_PA_MODEL_SHAPE = (2, 24)


def _frame_configs(waveform: OfdmConfig, cfg: TrainConfig) -> tuple[OfdmConfig, OfdmConfig]:
    """(training, held-out) frames: ``cfg`` sizes both; the held-out one takes the next seed."""
    return (
        replace(waveform, n_symbols=cfg.train_symbols),
        replace(waveform, n_symbols=cfg.val_symbols, seed=waveform.seed + 1),
    )


def run_full_training(
    pa,
    shapes: tuple[tuple[int, int], tuple[int, int]],
    cfg: TrainConfig,
    waveform: OfdmConfig,
) -> tuple[DenseNet, TrainLog]:
    """The full iterative procedure; returns the final predistorter and log.

    ``shapes`` is a pair ((dpd_hidden_layers, dpd_width),
    (model_hidden_layers, model_width)). ``waveform`` sets the frames' OFDM
    parameters and ``cfg`` their symbol counts.
    Iteration 1 transmits the raw frame; later iterations transmit the
    current predistorter's output, so the model sees the amplifier in the
    region the predistorter actually drives. With zero outer iterations the
    predistorter is the passthrough ``DenseNet.zeros`` and no frame is built.
    """
    dpd_shape, model_shape = shapes
    if cfg.outer_iterations == 0:
        return DenseNet.zeros(*dpd_shape), TrainLog()
    train_cfg, val_cfg = _frame_configs(waveform, cfg)
    _, x_train = generate_ofdm(train_cfg)
    _, x_val = generate_ofdm(val_cfg)

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

        pa_net, _ = train_pa_nn(
            (x_hat, y_norm), pa_net, cfg,
            val_pairs=(x_hat_val, y_val_norm),
            epochs=epochs, iteration=iteration, log=log,
        )
        dpd, _ = train_dpd_nn(
            dpd, pa_net, x_train, cfg,
            x_val=x_val, epochs=epochs, iteration=iteration, log=log,
        )
    return dpd, log
