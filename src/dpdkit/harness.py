"""Experiment harness: sweep a list of predistorters against one amplifier.

Each sweep row trains a predistorter (least squares for polynomials, the
iterative network procedure for nets), evaluates ACLR and EVM on a held-out
validation frame, recomputes the complexity counts from the descriptor, and
optionally re-runs inference through the 16-bit fixed-point path. Artifacts
land in one directory per descriptor; the top-level sweep.csv is written
with round-tripping float formatting so a rerun of the same spec produces
identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .complexity import ComplexityReport, parse_descriptor
from .errors import AlignmentError, ConfigurationError
from .fixedpoint import FixedFormat, FixedPointStats, nn_forward_fixed, poly_forward_fixed
from .mempoly import fit_ila, poly_predistort, rescale_cascade_gain, save_poly_model
from .metrics import aclr_db_gated, default_segment_len, evm_percent, psd_welch
from .nn import nn_forward, save_net
from .ofdm import OfdmConfig, demodulate_ofdm, generate_ofdm
from .pa import load_default_pa, load_pa_profile
from .signals import IqSignal, _write_lines
from .training import DEFAULT_PA_MODEL_SHAPE, TrainConfig, _frame_configs, run_full_training

__all__ = [
    "DEFAULT_SWEEP",
    "POLY_FIXED_BACKOFF",
    "ExperimentSpec",
    "DpdReport",
    "descriptor_slug",
    "run_sweep",
    "emit_psd_overlay",
]

# The four headline design points: two nets, two polynomials.
DEFAULT_SWEEP = ["nn K=1 N=6", "nn K=1 N=14", "poly P=7 M=1", "poly P=11 M=2"]

# Cascade-gain backoff applied to fitted polynomials whenever a fixed-point
# evaluation is requested: the fitted linear coefficient sits a few percent
# above 1.0, outside Q1.15, and scaling the model to gain 0.95 puts every
# coefficient in range without leaving the model class. The float row of the
# same sweep uses the identical backed-off model so the two rows compare the
# arithmetic, not two different deployments.
POLY_FIXED_BACKOFF = 0.95

# one column per DpdReport field, in field order: a sweep.csv row is astuple(report)
SWEEP_COLUMNS = (
    "descriptor,n_params,n_mults,aclr_db,evm_pct,"
    "mode,sat_events,underflow_pct,train_log_path,status"
)


def descriptor_slug(descriptor: str) -> str:
    """Directory-safe form of a descriptor string."""
    return descriptor.replace("=", "").replace(" ", "_").replace("+", "")


@dataclass
class ExperimentSpec:
    """Everything run_sweep needs; mirrors the CLI flags and the JSON file."""

    pa_profile_path: str = "default"
    waveform: OfdmConfig = field(default_factory=lambda: OfdmConfig(seed=1))
    dpd_list: list[str] = field(default_factory=lambda: list(DEFAULT_SWEEP))
    train: TrainConfig = field(default_factory=TrainConfig)
    fixed_point: FixedFormat | None = None
    output_dir: str = "sweep_out"

    def __post_init__(self):
        # a bare string would otherwise be read one character per descriptor
        if not isinstance(self.dpd_list, list) or not all(isinstance(d, str) for d in self.dpd_list):
            raise ConfigurationError(
                f"dpd_list must be a list of descriptor strings, got {self.dpd_list!r}", "dpd_list"
            )
        if not self.dpd_list:
            raise ConfigurationError("dpd_list must not be empty")
        # two texts naming one design point would fit twice into one row directory
        seen = {}
        for d in self.dpd_list:
            name = parse_descriptor(d)[2].model_descriptor
            if name in seen:
                raise ConfigurationError(f"descriptors {seen[name]!r} and {d!r} "
                                         f"both name the design point {name!r}")
            seen[name] = d
        if self.waveform.n_symbols != OfdmConfig.n_symbols:
            raise ConfigurationError("waveform.n_symbols is not a spec setting; "
                                     "train.train_symbols/val_symbols size the frames")

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        """Load a spec from a JSON file; missing keys take the defaults."""
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(raw, base_dir=Path(path).parent)

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path | None = None) -> "ExperimentSpec":
        if not isinstance(raw, dict):
            raise ConfigurationError(f"spec must be a JSON object, got {type(raw).__name__}")
        extra = set(raw) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigurationError(f"unknown spec keys: {sorted(extra)}")
        # Path() and the spec's own checks raise TypeError on a wrong-typed top-level value
        try:
            kwargs = {}
            if "pa_profile_path" in raw:
                pa_path = raw["pa_profile_path"]
                if base_dir is not None and pa_path not in ("default", "", None):
                    p = Path(pa_path)
                    if not p.is_absolute():
                        pa_path = str(base_dir / p)
                kwargs["pa_profile_path"] = pa_path
            if "waveform" in raw:
                kwargs["waveform"] = _section("waveform", OfdmConfig, raw["waveform"])
            if "dpd_list" in raw:
                kwargs["dpd_list"] = raw["dpd_list"]
            if "train" in raw:
                kwargs["train"] = _section("train", TrainConfig, raw["train"])
            if raw.get("fixed_point") is not None:
                kwargs["fixed_point"] = _section("fixed_point", FixedFormat, raw["fixed_point"])
            if "output_dir" in raw:
                out = Path(raw["output_dir"])
                if base_dir is not None and not out.is_absolute():
                    out = base_dir / out
                kwargs["output_dir"] = str(out)
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad spec value: {exc}") from exc


def _section(key: str, config_type, raw):
    """Build one spec section; an error names the field as ``key.field``, or else the section."""
    try:
        return config_type(**raw)
    except ConfigurationError as exc:
        if exc.field is None:
            raise
        raise ConfigurationError(f"bad spec value: {key}.{exc}", f"{key}.{exc.field}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad spec value in {key}: {exc}") from exc


@dataclass
class DpdReport:
    """One sweep row: what it costs and how well it linearizes."""

    descriptor: str
    n_params_real: int
    n_mults: int
    aclr_db: float
    evm_pct: float
    mode: str = "float"
    sat_events: int = 0
    underflow_pct: float = 0.0
    train_log_path: str = ""
    status: str = "ok"


def _error_report(descriptor: str, exc: Exception) -> DpdReport:
    msg = str(exc).replace("\n", " ").replace(",", ";")
    return DpdReport(
        descriptor=descriptor,
        n_params_real=0,
        n_mults=0,
        aclr_db=float("nan"),
        evm_pct=float("nan"),
        status=f"error: {type(exc).__name__}: {msg}",
    )


def _fit(kind, params, pa, spec: ExperimentSpec, x_train, row_dir: Path):
    """Fit one predistorter, then write its model.txt and trainlog.csv.

    The one place the two families differ. Returns the model with its float
    and fixed-point forwards, named as module globals at call time so that a
    rebinding of those globals reaches the sweep's calls. The row directory
    is created only after the fit succeeds: a failed row leaves no directory.
    """
    if kind == "poly":
        model, residuals = fit_ila(pa, params, x_train, spec.train.outer_iterations)
        if spec.fixed_point is not None:
            model = rescale_cascade_gain(model, POLY_FIXED_BACKOFF)
        row_dir.mkdir(parents=True, exist_ok=True)
        save_poly_model(model, str(row_dir / "model.txt"))
        _write_lines(row_dir / "trainlog.csv", ["iteration,residual"], enumerate(residuals, start=1))
        return model, poly_predistort, poly_forward_fixed
    net, log = run_full_training(
        pa, shapes=(params, DEFAULT_PA_MODEL_SHAPE), cfg=spec.train, waveform=spec.waveform
    )
    row_dir.mkdir(parents=True, exist_ok=True)
    save_net(net, str(row_dir / "model.txt"))
    log.to_csv(str(row_dir / "trainlog.csv"))
    return net, nn_forward, nn_forward_fixed


def _evaluate(pa, predistorted: IqSignal, val_cfg: OfdmConfig, ref_grid) -> tuple[float, float, IqSignal]:
    y = pa.apply(predistorted)
    aclr = aclr_db_gated(y, val_cfg)
    evm = evm_percent(ref_grid, demodulate_ofdm(y, val_cfg))
    return aclr, evm, y


def _load_pa(path):
    if path in ("default", "", None):
        return load_default_pa()
    return load_pa_profile(path)


def _run_descriptor(
    kind, params, report: ComplexityReport, spec: ExperimentSpec, x_train, x_val, val_cfg, ref_grid
) -> list[DpdReport]:
    # a fresh amplifier per row: rows never share noise-generator state, so
    # they are order-independent and could run in parallel
    pa = _load_pa(spec.pa_profile_path)
    slug = descriptor_slug(report.model_descriptor)
    row_dir = Path(spec.output_dir) / slug
    model, forward, forward_fixed = _fit(kind, params, pa, spec, x_train, row_dir)

    aclr, evm, y = _evaluate(pa, forward(model, x_val), val_cfg, ref_grid)
    emit_psd_overlay([(slug, y)], row_dir / "psd.csv")
    float_row = DpdReport(
        descriptor=report.model_descriptor,
        n_params_real=report.n_params_real,
        n_mults=report.n_mults,
        aclr_db=aclr,
        evm_pct=evm,
        train_log_path=f"{slug}/trainlog.csv",
    )
    if spec.fixed_point is None:
        return [float_row]
    stats = FixedPointStats()
    u_fixed = forward_fixed(model, x_val, spec.fixed_point, stats)
    aclr_q, evm_q, _ = _evaluate(pa, u_fixed, val_cfg, ref_grid)
    fixed_row = replace(float_row, mode="fixed", aclr_db=aclr_q, evm_pct=evm_q,
                        sat_events=stats.sat_events, underflow_pct=stats.underflow_pct())
    return [float_row, fixed_row]


def run_sweep(spec: ExperimentSpec) -> list[DpdReport]:
    """Train and evaluate every descriptor; write sweep.csv and artifacts.

    A failure in one row is captured in that row's status column and the
    sweep continues; the CLI maps any failed row to a nonzero exit code.
    """
    _load_pa(spec.pa_profile_path)  # unloadable profiles are a spec error, not a row error
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    train_cfg, val_cfg = _frame_configs(spec.waveform, spec.train)
    _, x_train = generate_ofdm(train_cfg)
    ref_grid, x_val = generate_ofdm(val_cfg)

    reports: list[DpdReport] = []
    for desc in spec.dpd_list:
        kind, params, report = parse_descriptor(desc)
        try:
            reports.extend(
                _run_descriptor(kind, params, report, spec, x_train, x_val, val_cfg, ref_grid)
            )
        except Exception as exc:  # noqa: BLE001 — per-row capture is the contract
            reports.append(_error_report(report.model_descriptor, exc))

    _write_lines(out_dir / "sweep.csv", [SWEEP_COLUMNS], map(astuple, reports))
    return reports


def emit_psd_overlay(signals: list[tuple[str, IqSignal]], path) -> None:
    """Write aligned PSD columns for several same-rate signals.

    One signal degenerates to the plain two-column PSD file; several produce
    `freq_hz,<name1>_db,<name2>_db,...` on a shared frequency grid, so those
    names must be distinct and hold no comma or line break.
    """
    if not signals:
        raise ConfigurationError("need at least one named signal")
    if len(signals) > 1:
        seen = set()
        for name, _ in signals:
            if any(c in name for c in ",\r\n"):
                raise ConfigurationError(f"signal name {name!r} holds a comma or line break")
            if name in seen:
                raise ConfigurationError(f"signal name {name!r} is repeated")
            seen.add(name)
    rates = {float(sig.sample_rate_hz) for _, sig in signals}
    if len(rates) != 1:
        raise AlignmentError(f"sample rates differ: {sorted(rates)}")
    estimates = [(name, psd_welch(sig)) for name, sig in signals]
    freqs = estimates[0][1].freqs_hz
    if any(not np.array_equal(est.freqs_hz, freqs) for _, est in estimates[1:]):
        grids = ", ".join(
            f"{name} has {len(sig)} samples (Welch segment {default_segment_len(len(sig))})"
            for name, sig in signals
        )
        raise AlignmentError(f"PSD grids do not align: {grids}")
    if len(estimates) == 1:
        header = "freq_hz,power_db"
    else:
        header = "freq_hz," + ",".join(f"{name}_db" for name, _ in estimates)
    columns = [est.power_db.tolist() for _, est in estimates]
    _write_lines(path, [header], zip(freqs.tolist(), *columns))
