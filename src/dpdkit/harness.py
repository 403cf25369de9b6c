"""Experiment harness: sweep a list of predistorters against one amplifier.

Each sweep row fits a predistorter through its record in complexity.FAMILIES,
which alone knows the families, evaluates ACLR and EVM on a held-out
validation frame with the counts from the descriptor, and optionally
re-runs inference through the 16-bit fixed-point path. This module alone
lays out the run directory: a fitted row's directory holds model.txt,
trainlog.csv and psd.csv, and the top-level sweep.csv is written with
round-tripping float formatting so a rerun of a spec gives identical bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .complexity import ComplexityReport, parse_descriptor
from .errors import AlignmentError, ConfigurationError, FormatError
from .fixedpoint import FixedFormat, FixedPointStats
from .metrics import _scorer, default_segment_len, psd_welch
from .ofdm import OfdmConfig, generate_ofdm
from .pa import load_default_pa, load_pa_profile
from .signals import IqSignal, _read_text, _write_lines
from .training import TrainConfig

__all__ = [
    "DEFAULT_SWEEP",
    "ExperimentSpec",
    "DpdReport",
    "descriptor_slug",
    "run_sweep",
    "emit_psd_overlay",
]

# The four headline design points: two nets, two polynomials.
DEFAULT_SWEEP = ("nn K=1 N=6", "nn K=1 N=14", "poly P=7 M=1", "poly P=11 M=2")

# one column per DpdReport field, in field order: a sweep.csv row is astuple(report)
SWEEP_COLUMNS = (
    "descriptor,n_params,n_mults,aclr_db,evm_pct,"
    "mode,sat_events,underflow_pct,train_log_path,status"
)

#: each spec section's config type; fixed_point alone may be None, which means no fixed-point rows
_SECTIONS = {"waveform": OfdmConfig, "train": TrainConfig, "fixed_point": FixedFormat}
#: the pa_profile_path spellings that name the packaged amplifier profile
_PACKAGED_PROFILE = ("default", "", None)


def descriptor_slug(descriptor: str) -> str:
    """Directory-safe form of a descriptor string."""
    return descriptor.replace("=", "").replace(" ", "_").replace("+", "")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything run_sweep needs; mirrors the CLI flags and the JSON file. Frozen, so its
    checks hold for its lifetime: ``dataclasses.replace`` makes a changed copy and reruns them."""

    pa_profile_path: str = "default"
    waveform: OfdmConfig = field(default_factory=lambda: OfdmConfig(seed=1))
    dpd_list: tuple[str, ...] = DEFAULT_SWEEP  # a list is stored as a tuple
    train: TrainConfig = field(default_factory=TrainConfig)
    fixed_point: FixedFormat | None = None
    output_dir: str = "sweep_out"

    def __post_init__(self):
        # an int would otherwise be opened as a file descriptor, and read and closed
        if not isinstance(self.pa_profile_path, (str, type(None))):
            raise ConfigurationError(f"pa_profile_path must be a path string or None, "
                                     f"got {self.pa_profile_path!r}", "pa_profile_path")
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ConfigurationError(f"output_dir must be a path, got {self.output_dir!r}",
                                     "output_dir")
        # from_dict builds each section; a spec built in Python could hold a dict there
        for name, kind in _SECTIONS.items():
            kinds = (kind, type(None)) if name == "fixed_point" else (kind,)
            value = getattr(self, name)
            if not isinstance(value, kinds):
                names = " or ".join(k.__name__ for k in kinds)
                raise ConfigurationError(f"{name} must be of type {names}, got {value!r}", name)
        # a bare string would otherwise be read one character per descriptor
        dpd_list = self.dpd_list
        if not isinstance(dpd_list, (list, tuple)) or not all(isinstance(d, str) for d in dpd_list):
            raise ConfigurationError(
                f"dpd_list must be a list of descriptor strings, got {dpd_list!r}", "dpd_list"
            )
        object.__setattr__(self, "dpd_list", tuple(dpd_list))  # no edit in place skips the checks
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
        self.frames()

    def frames(self) -> tuple[OfdmConfig, OfdmConfig]:
        """The sweep's (training, held-out) frame configs, sized by ``train``; the held-out one
        takes the next seed. A frame too large for numpy is named by the count sizing it."""
        configs, wave = [], self.waveform
        for offset, name in enumerate(("train_symbols", "val_symbols")):
            try:
                n_symbols = getattr(self.train, name)
                configs.append(replace(wave, n_symbols=n_symbols, seed=wave.seed + offset))
            except ConfigurationError as exc:
                raise ConfigurationError(f"train.{name}: {exc}", f"train.{name}") from None
        return tuple(configs)

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        """Load a spec from a JSON file; missing keys take the defaults."""
        try:
            raw = json.loads(_read_text(path))
        except FormatError as exc:
            raise ConfigurationError(str(exc)) from None
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
        # refused at any value, the default too: the frames' sizes live under train;
        # a section that is not an object is named by _section
        if isinstance(raw.get("waveform"), dict) and "n_symbols" in raw["waveform"]:
            raise ConfigurationError("waveform.n_symbols is not a spec key; "
                                     "train.train_symbols/val_symbols size the frames",
                                     "waveform.n_symbols")
        # Path() and the spec's own checks raise TypeError on a wrong-typed top-level value
        try:
            kwargs = {key: raw[key] for key in ("pa_profile_path", "dpd_list") if key in raw}
            pa_path = raw.get("pa_profile_path")
            a_file = isinstance(pa_path, str) and pa_path not in _PACKAGED_PROFILE
            if base_dir is not None and a_file:  # the spec's own check names a non-string
                kwargs["pa_profile_path"] = str(base_dir / pa_path)  # an absolute path stays
            for key, kind in _SECTIONS.items():
                if key in raw and (raw[key] is not None or key != "fixed_point"):
                    kwargs[key] = _section(key, kind, raw[key])
            if "output_dir" in raw:
                out = raw["output_dir"]
                if isinstance(out, (str, os.PathLike)):  # the spec's own check names the rest
                    out = str(Path(out) if base_dir is None else base_dir / out)
                kwargs["output_dir"] = out
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


def _run_descriptor(
    family, params, report: ComplexityReport, spec: ExperimentSpec, pa, x_train, x_val, val_cfg,
    ref_grid, helper
) -> list[DpdReport]:
    slug = descriptor_slug(report.model_descriptor)
    model, log_header, log_rows = family.fit(params, pa, spec, x_train)
    row_dir = Path(spec.output_dir) / slug
    row_dir.mkdir(parents=True, exist_ok=True)
    family.save(model, str(row_dir / "model.txt"))
    _write_lines(row_dir / "trainlog.csv", [log_header], log_rows)
    score = _scorer(pa, val_cfg, ref_grid)
    # only the fixed-point forward runs on the helper: with the float metrics there too,
    # the helper's malloc arena kept their temporaries and poly_grid's peak RSS rose 7%
    fmt, stats = spec.fixed_point, FixedPointStats()
    fixed = None if fmt is None else helper.submit(family.forward_fixed, model, x_val, fmt, stats)
    try:
        y, aclr, evm = score(family.forward(model, x_val))
        emit_psd_overlay([(slug, y)], row_dir / "psd.csv")
        # the fixed output's transmit follows the float one, so each keeps its noise draw
        fixed_scores = None if fixed is None else score(fixed.result())[1:]
    finally:
        if fixed is not None:
            fixed.exception()  # waits: no task of this row outlives it
    float_row = DpdReport(
        descriptor=report.model_descriptor,
        n_params_real=report.n_params_real,
        n_mults=report.n_mults,
        aclr_db=aclr,
        evm_pct=evm,
        train_log_path=f"{slug}/trainlog.csv",
    )
    if fixed is None:
        return [float_row]
    aclr_q, evm_q = fixed_scores
    fixed_row = replace(float_row, mode="fixed", aclr_db=aclr_q, evm_pct=evm_q,
                        sat_events=stats.sat_events, underflow_pct=stats.underflow_pct())
    return [float_row, fixed_row]


def run_sweep(spec: ExperimentSpec) -> list[DpdReport]:
    """Train and evaluate every descriptor; write sweep.csv and artifacts.

    A failure in one row is captured in that row's status column and the
    sweep continues; the CLI maps any failed row to a nonzero exit code.

    The sweep has one helper thread, made here and shut down, its thread
    joined, before this returns. Once a row is fitted, this thread writes
    its model.txt and trainlog.csv; then the helper runs the fixed-point
    forward while this thread runs the float forward, its transmit, ACLR,
    EVM and psd.csv, and waits for the fixed output, transmits it and
    scores it. A row returns only once its helper task is done. Its errors
    are raised in the serial order: the float forward or transmit, the
    float metrics or psd.csv, the fixed forward, the fixed transmit or
    metrics; so psd.csv is written exactly when the float metrics succeed.
    """
    # imported here, not at module level, where it would lengthen every CLI start
    from concurrent.futures import ThreadPoolExecutor

    # read once: an unloadable profile is a spec error, not a row error, and every row gets
    # the same amplifier, even if the file changes mid-sweep
    path = spec.pa_profile_path
    pa = load_default_pa() if path in _PACKAGED_PROFILE else load_pa_profile(path)
    train_cfg, val_cfg = spec.frames()
    _, x_train = generate_ofdm(train_cfg)
    ref_grid, x_val = generate_ofdm(val_cfg)
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    reports: list[DpdReport] = []
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="dpdkit-score") as helper:
        for desc in spec.dpd_list:
            family, params, report = parse_descriptor(desc)
            try:
                # a fresh copy (_calls == 0) per row: rows share no noise-generator state
                reports.extend(_run_descriptor(family, params, report, spec, replace(pa), x_train,
                                               x_val, val_cfg, ref_grid, helper))
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
