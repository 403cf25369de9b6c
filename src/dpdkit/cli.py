"""Command-line front end: generate, sweep, psd, report.

A sweep can be described entirely by flags, entirely by a JSON spec file,
or a mix — flags override file values. Exit codes: 0 on success, 1 if any
sweep row failed, 2 for an unusable spec or arguments.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .errors import ConfigurationError, DpdError, FormatError
from .fixedpoint import FixedFormat
from .harness import DpdReport, ExperimentSpec, emit_psd_overlay, run_sweep
from .ofdm import OfdmConfig, generate_ofdm
from .signals import (
    _content_lines, _read_text, _write_lines, papr_db, read_signal_csv, write_signal_csv
)


def _epoch_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(e) for e in text.split(",") if e != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers like 20,5, got {text!r}") from None


#: One row per sweep flag, in --help order: (flag, (section, field) it overrides or None,
#: argparse options). Section "" is the ExperimentSpec itself; None marks the flags that
#: _spec_from_args reads itself. The waveform rows are generate's flags too.
_SWEEP_FLAGS = (
    ("--dpd", ("", "dpd_list"), dict(
        action="append", help="descriptor, e.g. 'nn K=1 N=14' or 'poly P=7 M=1' (repeatable); "
                              "overrides the spec")),
    ("--spec", None, dict(help="JSON experiment spec; flags override its values")),
    ("--pa", ("", "pa_profile_path"), dict(help="PA profile path, or 'default'")),
    ("--out", ("", "output_dir"), dict(help="output directory")),
    ("--seed", ("train", "seed"), dict(type=int, help="training seed (model init and shuffling)")),
    ("--iterations", None, dict(type=int, help="outer training iterations (0 = passthrough)")),
    ("--epochs", None, dict(type=_epoch_list, help="epochs per iteration, e.g. 20,5")),
    ("--lr", ("train", "learning_rate"), dict(type=float, help="Adam learning rate")),
    ("--batch", ("train", "batch_size"), dict(type=int, help="minibatch size")),
    ("--fixed-point", None, dict(
        action="store_true", help="also evaluate each model through the 16-bit fixed-point path")),
    ("--subcarriers", ("waveform", "n_subcarriers"),
     dict(type=int, help="occupied subcarrier count")),
    ("--spacing", ("waveform", "subcarrier_spacing_hz"),
     dict(type=float, help="subcarrier spacing in Hz")),
    ("--constellation", ("waveform", "constellation"), dict(choices=["qpsk", "qam16", "qam64"])),
    ("--oversampling", ("waveform", "oversampling_factor"),
     dict(type=int, help="DFT zero-padding factor")),
    ("--wave-seed", ("waveform", "seed"), dict(type=int, help="data symbol seed")),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpdkit", description="Predistorter experiments against a simulated amplifier"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("generate", help="synthesize an OFDM frame to a signal CSV")
    s = sub.add_parser("sweep", help="train and evaluate a list of predistorters")
    for flag, target, options in _SWEEP_FLAGS:
        s.add_argument(flag, **options)
        if target is not None and target[0] == "waveform":
            g.add_argument(flag, **options)
    g.add_argument("--symbols", type=int, default=OfdmConfig.n_symbols, help="symbols per frame")
    g.add_argument("--out", required=True, help="output signal CSV path")
    g.set_defaults(run=_cmd_generate)
    s.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("psd", help="PSD overlay CSV from signal CSVs")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("signals", nargs="+", help="signal CSVs, each a path or name=path (split at "
                                              "the first '='; an existing file is a path)")
    p.set_defaults(run=_cmd_psd)

    r = sub.add_parser("report", help="condense a sweep.csv into the headline columns")
    r.add_argument("--sweep", required=True, help="sweep directory or sweep.csv path")
    r.add_argument("--out", help="output CSV path (default: print)")
    r.add_argument("--mode", choices=["float", "fixed", "all"], default="float")
    r.set_defaults(run=_cmd_report)
    return parser


def _with_flags(args, section: str, base):
    """``base`` with each ``section`` field whose flag was given set to the flag's value."""
    updates = {}
    for flag, target, _ in _SWEEP_FLAGS:
        if target is not None and target[0] == section:
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is not None:
                updates[target[1]] = value
    return replace(base, **updates)


def _spec_from_args(args) -> ExperimentSpec:
    spec = ExperimentSpec.from_json(args.spec) if args.spec else ExperimentSpec()
    spec = _with_flags(args, "", spec)
    spec = replace(spec, waveform=_with_flags(args, "waveform", spec.waveform))
    train, iterations, epochs = spec.train, args.iterations, args.epochs
    if epochs is None and iterations is not None:
        if iterations > len(train.epochs_per_iteration):
            raise ConfigurationError(
                f"--iterations {iterations} needs --epochs with {iterations} entries"
            )
        epochs = train.epochs_per_iteration[:iterations]
    if epochs is not None:  # --epochs alone gives one iteration per entry
        iterations = len(epochs) if iterations is None else iterations
        train = replace(train, outer_iterations=iterations, epochs_per_iteration=epochs)
    spec = replace(spec, train=_with_flags(args, "train", train))
    if args.fixed_point and spec.fixed_point is None:
        spec = replace(spec, fixed_point=FixedFormat())
    return spec


def _cmd_generate(args) -> int:
    cfg = _with_flags(args, "waveform", OfdmConfig(n_symbols=args.symbols))
    _, signal = generate_ofdm(cfg)
    write_signal_csv(signal, args.out, metadata=asdict(cfg))
    print(f"wrote {len(signal)} samples at {signal.sample_rate_hz / 1e6:g} MHz, "
          f"PAPR {papr_db(signal):.2f} dB -> {args.out}")
    return 0


def _print_rows(reports: list[DpdReport]) -> None:
    for r in reports:
        if r.status == "ok":
            print(
                f"{r.descriptor:16s} [{r.mode}] mults {r.n_mults:4d} params {r.n_params_real:4d} "
                f"ACLR {r.aclr_db:8.3f} dB  EVM {r.evm_pct:6.3f} %"
            )
        else:
            print(f"{r.descriptor:16s} [{r.mode}] {r.status}")


def _cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    reports = run_sweep(spec)
    _print_rows(reports)
    print(f"sweep.csv -> {Path(spec.output_dir) / 'sweep.csv'}")
    return 0 if all(r.status == "ok" for r in reports) else 1


def _cmd_psd(args) -> int:
    named = []
    for item in args.signals:
        # an existing file is read as a path, "=" and all; anything else splits at its first "="
        name, sep, path = item.partition("=")
        if not sep or Path(item).is_file():
            name, path = "", item
        signal, _ = read_signal_csv(path)
        named.append((name or Path(path).stem, signal))
    emit_psd_overlay(named, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_report(args) -> int:
    path = Path(args.sweep)
    if path.is_dir():
        path = path / "sweep.csv"
    lines = _content_lines(_read_text(path))
    header_lineno, header_line = lines[0] if lines else (1, "")
    header = header_line.split(",")
    needed = ("descriptor", "n_params", "n_mults", "aclr_db", "evm_pct", "mode", "status")
    missing = [name for name in needed if name not in header]
    if missing:
        raise FormatError(f"{path}:{header_lineno}: sweep.csv header lacks {missing}")
    idx = {name: header.index(name) for name in needed}
    out_lines = ["descriptor,n_params,n_mults,aclr_db,evm_pct"]
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise FormatError(f"{path}:{lineno}: expected {len(header)} fields, got {len(cells)}")
        if cells[idx["status"]] != "ok":
            continue
        if args.mode != "all" and cells[idx["mode"]] != args.mode:
            continue
        out_lines.append(",".join(cells[idx[k]] for k in
                                  ("descriptor", "n_params", "n_mults", "aclr_db", "evm_pct")))
    if args.out:
        _write_lines(args.out, out_lines, [])
        print(f"wrote {args.out}")
    else:
        print("\n".join(out_lines))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (DpdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
