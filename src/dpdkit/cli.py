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


def _add_waveform_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--subcarriers", type=int, help="occupied subcarrier count")
    p.add_argument("--spacing", type=float, help="subcarrier spacing in Hz")
    p.add_argument("--constellation", choices=["qpsk", "qam16", "qam64"])
    p.add_argument("--oversampling", type=int, help="DFT zero-padding factor")
    p.add_argument("--wave-seed", type=int, help="data symbol seed")


def _epoch_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(e) for e in text.split(",") if e != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers like 20,5, got {text!r}") from None


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="JSON experiment spec; flags override its values")
    p.add_argument("--pa", help="PA profile path, or 'default'")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="training seed (model init and shuffling)")
    p.add_argument("--iterations", type=int, help="outer training iterations (0 = passthrough)")
    p.add_argument("--epochs", type=_epoch_list, help="epochs per iteration, e.g. 20,5")
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument("--batch", type=int, help="minibatch size")
    p.add_argument(
        "--fixed-point",
        action="store_true",
        help="also evaluate each model through the 16-bit fixed-point path",
    )
    _add_waveform_flags(p)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpdkit", description="Predistorter experiments against a simulated amplifier"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("generate", help="synthesize an OFDM frame to a signal CSV")
    _add_waveform_flags(g)
    g.add_argument("--symbols", type=int, default=OfdmConfig.n_symbols, help="symbols per frame")
    g.add_argument("--out", required=True, help="output signal CSV path")

    s = sub.add_parser("sweep", help="train and evaluate a list of predistorters")
    s.add_argument("--dpd", action="append",
                   help="descriptor, e.g. 'nn K=1 N=14' or 'poly P=7 M=1' (repeatable); "
                        "overrides the spec")
    _add_sweep_flags(s)

    p = sub.add_parser("psd", help="PSD overlay CSV from signal CSVs")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("signals", nargs="+", help="signal CSVs, optionally name=path")

    r = sub.add_parser("report", help="condense a sweep.csv into the headline columns")
    r.add_argument("--sweep", required=True, help="sweep directory or sweep.csv path")
    r.add_argument("--out", help="output CSV path (default: print)")
    r.add_argument("--mode", choices=["float", "fixed", "all"], default="float")
    return parser


def _waveform_from_args(args, base: OfdmConfig) -> OfdmConfig:
    updates = {}
    if args.subcarriers is not None:
        updates["n_subcarriers"] = args.subcarriers
    if args.spacing is not None:
        updates["subcarrier_spacing_hz"] = args.spacing
    if args.constellation is not None:
        updates["constellation"] = args.constellation
    if args.oversampling is not None:
        updates["oversampling_factor"] = args.oversampling
    if args.wave_seed is not None:
        updates["seed"] = args.wave_seed
    return replace(base, **updates) if updates else base


def _spec_from_args(args) -> ExperimentSpec:
    spec = ExperimentSpec.from_json(args.spec) if args.spec else ExperimentSpec()
    if args.dpd:
        spec = replace(spec, dpd_list=args.dpd)
    spec = replace(spec, waveform=_waveform_from_args(args, spec.waveform))
    train = spec.train
    if args.iterations is not None or args.epochs is not None:
        iterations = args.iterations if args.iterations is not None else train.outer_iterations
        if args.epochs is not None:
            epochs = args.epochs
        elif iterations <= len(train.epochs_per_iteration):
            epochs = train.epochs_per_iteration[:iterations]
        else:
            raise ConfigurationError(
                f"--iterations {iterations} needs --epochs with {iterations} entries"
            )
        train = replace(train, outer_iterations=iterations, epochs_per_iteration=epochs)
    if args.lr is not None:
        train = replace(train, learning_rate=args.lr)
    if args.batch is not None:
        train = replace(train, batch_size=args.batch)
    if args.seed is not None:
        train = replace(train, seed=args.seed)
    spec = replace(spec, train=train)
    if args.pa is not None:
        spec = replace(spec, pa_profile_path=args.pa)
    if args.out is not None:
        spec = replace(spec, output_dir=args.out)
    if args.fixed_point and spec.fixed_point is None:
        spec = replace(spec, fixed_point=FixedFormat())
    return spec


def _cmd_generate(args) -> int:
    cfg = _waveform_from_args(args, OfdmConfig(n_symbols=args.symbols))
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
        name, _, path = item.rpartition("=")
        if not name:
            name, path = Path(path).stem, path
        signal, _ = read_signal_csv(path)
        named.append((name, signal))
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
        if args.verb == "generate":
            return _cmd_generate(args)
        if args.verb == "sweep":
            return _cmd_sweep(args)
        if args.verb == "psd":
            return _cmd_psd(args)
        return _cmd_report(args)
    except (DpdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
