"""Sweep harness and CLI: descriptor parsing, orchestration, artifacts."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dpdkit
from dpdkit.cli import main
from dpdkit.complexity import nn_count, parse_descriptor, poly_count
from dpdkit.errors import AlignmentError, ConfigurationError
from dpdkit.fixedpoint import FixedFormat
from dpdkit.harness import (
    DEFAULT_SWEEP,
    ExperimentSpec,
    descriptor_slug,
    emit_psd_overlay,
    run_sweep,
)
from dpdkit.mempoly import PolyShape, load_poly_model
from dpdkit.metrics import aclr_db_gated, evm_percent, psd_welch
from dpdkit.nn import load_net
from dpdkit.ofdm import OfdmConfig, demodulate_ofdm, generate_ofdm
from dpdkit.pa import load_default_pa
from dpdkit.signals import IqSignal
from dpdkit.training import TrainConfig

SMALL_WAVE = OfdmConfig(seed=1)
SMALL_TRAIN = TrainConfig(train_symbols=1, val_symbols=1)
PASSTHROUGH = TrainConfig(
    outer_iterations=0, epochs_per_iteration=(), train_symbols=1, val_symbols=1
)


def small_spec(tmp_path, **overrides) -> ExperimentSpec:
    base = dict(
        waveform=SMALL_WAVE,
        train=SMALL_TRAIN,
        dpd_list=["poly P=7 M=1"],
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def baseline_metrics() -> tuple[float, float]:
    """No-DPD ACLR/EVM on the held-out frame of the small waveform."""
    val_cfg = OfdmConfig(n_symbols=1, seed=2)
    ref, x_val = generate_ofdm(val_cfg)
    y = load_default_pa().apply(x_val)
    return aclr_db_gated(y, val_cfg), evm_percent(ref, demodulate_ofdm(y, val_cfg))


class TestParseDescriptor:
    def test_poly_dict(self):
        kind, shape, report = parse_descriptor("poly L=1 Q=3 M=2 P=7")
        assert kind == "poly"
        assert shape == PolyShape(7, 2, 3, 1)
        assert report == poly_count(shape)

    def test_poly_dict_defaults(self):
        _, shape, _ = parse_descriptor("poly P=9")
        assert shape == PolyShape(9, 1)

    def test_nn_dict(self):
        kind, params, report = parse_descriptor("nn K=2 N=8")
        assert (kind, params) == ("nn", (2, 8))
        assert report == nn_count(2, 8)

    def test_text_forms(self):
        assert parse_descriptor("poly P=11 M=2")[1] == PolyShape(11, 2)
        assert parse_descriptor("poly P=7 M=2 Q=3 L=1")[1] == PolyShape(7, 2, 3, 1)
        assert parse_descriptor("poly P=3 M=1 +dc")[1] == PolyShape(3, 1, include_dc=True)
        assert parse_descriptor("nn_K1_N14")[:2] == ("nn", (1, 14))
        assert parse_descriptor("nn K=2 N=8")[:2] == ("nn", (2, 8))

    def test_descriptor_string_round_trips(self):
        for shape in [PolyShape(7, 1), PolyShape(13, 4), PolyShape(5, 2, 5, 2)]:
            assert parse_descriptor(poly_count(shape).model_descriptor)[1] == shape

    @given(
        p_max=st.integers(0, 20).map(lambda i: 2 * i + 1),
        main_taps=st.integers(1, 8),
        conj=st.one_of(
            st.just((0, 0)),
            st.tuples(st.integers(0, 10).map(lambda i: 2 * i + 1), st.integers(1, 8)),
        ),
        include_dc=st.booleans(),
    )
    def test_poly_descriptor_text_round_trips(self, p_max, main_taps, conj, include_dc):
        shape = PolyShape(p_max, main_taps, *conj, include_dc=include_dc)
        report = poly_count(shape)
        assert parse_descriptor(report.model_descriptor) == ("poly", shape, report)

    @given(k=st.integers(1, 16), n=st.integers(1, 512))
    def test_nn_descriptor_text_round_trips(self, k, n):
        report = nn_count(k, n)
        assert parse_descriptor(report.model_descriptor) == ("nn", (k, n), report)

    def test_malformed_rejected(self):
        for bad in [
            "fir taps=3",
            "poly M=1",
            "nn K=0 N=4",
            "nn K=1",
            "spline order=3",
            "poly P=7 M=1 Z=3",
            "nnet K=1 N=2",
            {"type": "poly", "P": 7, "taps": 1},
            42,
        ]:
            with pytest.raises(ConfigurationError):
                parse_descriptor(bad)

    def test_slug_is_path_safe(self):
        assert descriptor_slug("poly P=7 M=1") == "poly_P7_M1"
        assert descriptor_slug("nn_K1_N14") == "nn_K1_N14"
        assert descriptor_slug("poly P=3 M=1 +dc") == "poly_P3_M1_dc"


class TestExperimentSpec:
    def test_defaults_are_valid(self):
        spec = ExperimentSpec()
        assert spec.dpd_list == DEFAULT_SWEEP
        assert spec.fixed_point is None

    def test_empty_dpd_list_rejected(self):
        for bad in (
            dict(dpd_list=[]),
            # train.train_symbols/val_symbols size the frames
            dict(waveform=OfdmConfig(n_symbols=5, seed=1)),
        ):
            with pytest.raises(ConfigurationError):
                ExperimentSpec(**bad)

    def test_bad_descriptor_rejected_up_front(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(dpd_list=["poly P=6 M=1"])

    def test_repeated_design_point_rejected(self):
        # both rows would fit the same model into one row directory
        for first, second in (("poly P=3", "poly P=3 M=1"), ("nn K=1 N=6", "nn_K1_N6")):
            with pytest.raises(ConfigurationError) as info:
                ExperimentSpec(dpd_list=[first, "poly P=5 M=1", second])
            assert repr(first) in str(info.value) and repr(second) in str(info.value)

    def test_dpd_list_must_be_a_list_of_strings(self):
        # a bare string used to be read one character per descriptor
        for bad in ("poly P=3", ("poly P=3",), ["poly P=3", 7], [{"type": "poly", "P": 3}]):
            with pytest.raises(ConfigurationError, match="list of descriptor strings"):
                ExperimentSpec(dpd_list=bad)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(seed=-1)

    def test_from_json(self, tmp_path):
        spec_file = tmp_path / "exp.json"
        spec_file.write_text(
            json.dumps(
                {
                    "waveform": {"seed": 5},
                    "train": {"outer_iterations": 1, "epochs_per_iteration": [4], "seed": 3},
                    "dpd_list": ["nn K=1 N=6"],
                    "fixed_point": {"total_bits": 12, "frac_bits": 11},
                    "output_dir": "results",
                }
            )
        )
        spec = ExperimentSpec.from_json(spec_file)
        assert spec.waveform.seed == 5
        assert spec.train.outer_iterations == 1
        assert spec.fixed_point == FixedFormat(total_bits=12, frac_bits=11)
        assert spec.output_dir == str(tmp_path / "results")
        assert spec.train.seed == 3

    def test_from_json_rejects_unknown_keys(self, tmp_path):
        spec_file = tmp_path / "exp.json"
        spec_file.write_text(json.dumps({"pa_model": "default"}))
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_json(spec_file)

    def test_from_json_rejects_bad_json(self, tmp_path):
        spec_file = tmp_path / "exp.json"
        spec_file.write_text("{not json")
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_json(spec_file)

    def test_benchmark_workload_specs_load(self):
        # the benchmark runs these specs; a grammar or spec-key change must fail here first
        workloads = sorted((Path(__file__).parents[1] / "perfbench" / "workloads").glob("*.json"))
        assert workloads
        for path in workloads:
            assert ExperimentSpec.from_json(path).dpd_list

    def test_readme_spec_example_loads(self):
        # a spec key removed from the code must not live on in the docs
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        examples = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
        assert examples
        for text in examples:
            assert ExperimentSpec.from_dict(json.loads(text)).dpd_list


class TestRunSweep:
    def test_passthrough_rows_equal_no_dpd_baseline(self, tmp_path):
        spec = small_spec(
            tmp_path,
            dpd_list=["poly P=7 M=1", "nn K=1 N=6"],
            train=PASSTHROUGH,
        )
        rows = run_sweep(spec)
        aclr0, evm0 = baseline_metrics()
        assert len(rows) == 2
        for row in rows:
            assert row.status == "ok"
            assert row.aclr_db == aclr0
            assert row.evm_pct == evm0
        assert rows[0].n_params_real == 8 and rows[0].n_mults == 27
        assert rows[1].n_params_real == 32 and rows[1].n_mults == 24

    def test_passthrough_aclr_does_not_depend_on_spacing(self, tmp_path):
        # the ACLR channel scales with the waveform, so a wider spacing moves nothing
        rows = []
        for spacing in (15e3, 30e3):
            spec = small_spec(tmp_path / str(spacing), train=PASSTHROUGH,
                              waveform=OfdmConfig(subcarrier_spacing_hz=spacing, seed=1))
            rows.append(run_sweep(spec)[0])
        assert [r.status for r in rows] == ["ok", "ok"]
        assert rows[1].aclr_db == pytest.approx(rows[0].aclr_db, abs=1e-9)
        assert rows[1].evm_pct == pytest.approx(rows[0].evm_pct, abs=1e-9)

    def test_ila_row_beats_passthrough(self, tmp_path):
        rows = run_sweep(small_spec(tmp_path))
        aclr0, evm0 = baseline_metrics()
        assert rows[0].status == "ok"
        assert rows[0].aclr_db < aclr0 - 10
        assert rows[0].evm_pct < evm0

    def test_artifacts_written(self, tmp_path):
        spec = small_spec(tmp_path)
        run_sweep(spec)
        out = tmp_path / "out"
        assert (out / "sweep.csv").exists()
        row_dir = out / "poly_P7_M1"
        model = load_poly_model(str(row_dir / "model.txt"))
        assert model.shape == PolyShape(7, 1)
        log_lines = (row_dir / "trainlog.csv").read_text().splitlines()
        assert log_lines[0] == "iteration,residual"
        assert len(log_lines) == 3  # two fit iterations
        psd_lines = (row_dir / "psd.csv").read_text().splitlines()
        assert psd_lines[0] == "freq_hz,power_db"

    def test_sweep_csv_bytes_reproducible(self, tmp_path):
        spec = small_spec(tmp_path, fixed_point=FixedFormat())
        run_sweep(spec)
        first = (tmp_path / "out" / "sweep.csv").read_bytes()
        run_sweep(spec)
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == first

    def test_fixed_point_adds_matched_rows(self, tmp_path):
        spec = small_spec(tmp_path, fixed_point=FixedFormat())
        rows = run_sweep(spec)
        assert [r.mode for r in rows] == ["float", "fixed"]
        fl, fx = rows
        assert fl.descriptor == fx.descriptor
        assert abs(fl.aclr_db - fx.aclr_db) < 1.5
        # the deployed model is backed off below the Q1.15 ceiling
        model = load_poly_model(str(tmp_path / "out" / "poly_P7_M1" / "model.txt"))
        assert np.abs(model.alpha.real).max() < 1.0

    def test_nn_row_trains_and_persists(self, tmp_path):
        spec = small_spec(
            tmp_path,
            dpd_list=["nn K=1 N=4"],
            train=TrainConfig(
                outer_iterations=1,
                epochs_per_iteration=(30,),
                train_symbols=1,
                val_symbols=1,
            ),
        )
        rows = run_sweep(spec)
        assert rows[0].status == "ok"
        net = load_net(str(tmp_path / "out" / "nn_K1_N4" / "model.txt"))
        assert net.hidden_layers == 1 and net.width == 4
        log_lines = (tmp_path / "out" / "nn_K1_N4" / "trainlog.csv").read_text().splitlines()
        assert log_lines[0] == "iteration,phase,epoch,train_mse,val_mse"
        assert len(log_lines) == 1 + 60  # 30 amplifier-model epochs + 30 predistorter epochs

    def test_train_seed_reaches_training(self, tmp_path):
        models = []
        for seed in (0, 5):
            spec = small_spec(
                tmp_path,
                dpd_list=["nn K=1 N=4"],
                train=TrainConfig(
                    outer_iterations=1,
                    epochs_per_iteration=(1,),
                    train_symbols=1,
                    val_symbols=1,
                    seed=seed,
                ),
                output_dir=str(tmp_path / f"seed{seed}"),
            )
            # model.txt is written before evaluation, which at seed 0 overdrives the amplifier
            run_sweep(spec)
            models.append((tmp_path / f"seed{seed}" / "nn_K1_N4" / "model.txt").read_bytes())
        assert models[0] != models[1]

    def test_row_failure_is_captured_and_sweep_continues(self, tmp_path):
        spec = small_spec(
            tmp_path,
            dpd_list=["poly P=5 M=1", "nn K=1 N=4"],
            train=TrainConfig(
                outer_iterations=1,
                epochs_per_iteration=(1,),
                learning_rate=1e160,
                train_symbols=1,
                val_symbols=1,
            ),
        )
        with np.errstate(all="ignore"):
            rows = run_sweep(spec)
        assert rows[0].status == "ok"
        assert rows[1].status.startswith("error: DivergenceError")
        assert rows[1].descriptor == "nn_K1_N4"
        assert not (tmp_path / "out" / "nn_K1_N4").exists()
        text = (tmp_path / "out" / "sweep.csv").read_text()
        assert "error: DivergenceError" in text

    @pytest.mark.parametrize("seed, overdrives", [(0, True), (1, True), (2, False), (5, False)])
    def test_overdriving_net_is_a_row_error(self, tmp_path, seed, overdrives):
        # one epoch leaves nn K=1 N=4 driving the amplifier past its limit at
        # seeds 0 and 1; whatever the schedule, that must stay a row error
        spec = small_spec(
            tmp_path,
            dpd_list=["nn K=1 N=4", "poly P=5 M=1"],
            train=TrainConfig(
                outer_iterations=1,
                epochs_per_iteration=(1,),
                train_symbols=1,
                val_symbols=1,
                seed=seed,
            ),
        )
        rows = run_sweep(spec)
        row_dir = tmp_path / "out" / "nn_K1_N4"
        assert rows[1].status == "ok"  # the sweep goes on to the next row
        assert (row_dir / "model.txt").exists() and (row_dir / "trainlog.csv").exists()
        if overdrives:
            assert re.fullmatch(
                r"error: InputRangeError: input peak \d+\.\d{4} exceeds the allowed drive 1\.5",
                rows[0].status,
            )
            assert not (row_dir / "psd.csv").exists()
            assert rows[0].status in (tmp_path / "out" / "sweep.csv").read_text()
        else:
            assert rows[0].status == "ok"
            assert (row_dir / "psd.csv").exists()


class TestEmitPsdOverlay:
    def test_two_signals_share_a_grid(self, tmp_path):
        _, a = generate_ofdm(OfdmConfig(n_symbols=1, seed=5))
        _, b = generate_ofdm(OfdmConfig(n_symbols=1, seed=6))
        path = tmp_path / "overlay.csv"
        emit_psd_overlay([("plain", a), ("shaped", b)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "freq_hz,plain_db,shaped_db"
        est = psd_welch(a)
        first = lines[1].split(",")
        assert float(first[0]) == est.freqs_hz[0]
        assert float(first[1]) == est.power_db[0]
        assert len(lines) == 1 + len(est.freqs_hz)

    def test_single_signal_degenerates_to_psd_csv(self, tmp_path):
        _, a = generate_ofdm(OfdmConfig(n_symbols=1, seed=5))
        path = tmp_path / "single.csv"
        emit_psd_overlay([("anything", a)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "freq_hz,power_db"

    def test_rate_mismatch_rejected(self, tmp_path):
        _, a = generate_ofdm(OfdmConfig(n_symbols=1, seed=5))
        b = IqSignal(a.samples, a.sample_rate_hz / 2)
        with pytest.raises(AlignmentError):
            emit_psd_overlay([("a", a), ("b", b)], tmp_path / "x.csv")

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            emit_psd_overlay([], tmp_path / "x.csv")


class TestCli:
    def test_generate_writes_signal(self, tmp_path):
        out = tmp_path / "frame.csv"
        assert main(["generate", "--symbols", "1", "--wave-seed", "7", "--out", str(out)]) == 0
        assert out.exists()

    def test_generate_is_bitwise_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--symbols", "1", "--wave-seed", "7", "--out", str(a)])
        main(["generate", "--symbols", "1", "--wave-seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_and_report(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["sweep", "--dpd", "poly P=7 M=1", "--dpd", "poly P=5 M=1",
             "--wave-seed", "1", "--out", str(out), "--iterations", "0"]
        )
        assert code == 0
        assert (out / "sweep.csv").exists()
        report = tmp_path / "report.csv"
        assert main(["report", "--sweep", str(out), "--out", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "descriptor,n_params,n_mults,aclr_db,evm_pct"
        assert len(lines) == 3

    def test_train_single_descriptor(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["sweep", "--dpd", "poly P=3 M=1", "--wave-seed", "1", "--out", str(out),
             "--iterations", "1"]
        )
        assert code == 0
        assert (out / "poly_P3_M1" / "model.txt").exists()

    def test_psd_verb(self, tmp_path):
        sig = tmp_path / "frame.csv"
        main(["generate", "--symbols", "1", "--wave-seed", "3", "--out", str(sig)])
        overlay = tmp_path / "psd.csv"
        assert main(["psd", "--out", str(overlay), f"base={sig}", str(sig)]) == 0
        lines = overlay.read_text().splitlines()
        assert lines[0] == "freq_hz,base_db,frame_db"

    def test_psd_verb_on_a_short_frame(self, tmp_path):
        sig = tmp_path / "short.csv"
        assert main(["generate", "--subcarriers", "100", "--symbols", "1", "--out", str(sig)]) == 0
        overlay = tmp_path / "psd.csv"
        assert main(["psd", "--out", str(overlay), str(sig)]) == 0
        lines = overlay.read_text().splitlines()
        assert lines[0] == "freq_hz,power_db"
        assert len(lines) == 1 + 512

    def test_psd_verb_names_lengths_when_grids_differ(self, tmp_path, capsys):
        short, long = tmp_path / "short.csv", tmp_path / "long.csv"
        for path, symbols in ((short, "1"), (long, "10")):
            argv = ["generate", "--subcarriers", "100", "--symbols", symbols, "--out", str(path)]
            assert main(argv) == 0
        capsys.readouterr()
        assert main(["psd", "--out", str(tmp_path / "psd.csv"), str(short), str(long)]) == 2
        err = capsys.readouterr().err
        assert "PSD grids do not align" in err
        assert "short has 512 samples (Welch segment 512)" in err
        assert "long has 5120 samples (Welch segment 1024)" in err

    def test_psd_verb_rejects_names_that_break_the_header(self, tmp_path, capsys):
        sig = tmp_path / "frame.csv"
        main(["generate", "--symbols", "1", "--wave-seed", "3", "--out", str(sig)])
        overlay = tmp_path / "psd.csv"
        for pair, bad in (((f"a,b={sig}", f"c={sig}"), "'a,b'"),
                          ((f"a\nb={sig}", f"c={sig}"), "'a\\nb'"),
                          ((f"x={sig}", f"x={sig}"), "'x' is repeated"),
                          ((str(sig), str(sig)), "'frame' is repeated")):
            capsys.readouterr()
            assert main(["psd", "--out", str(overlay), *pair]) == 2
            assert bad in capsys.readouterr().err
            assert not overlay.exists()

    def test_small_waveform_sweep_rows_ok(self, tmp_path):
        out = tmp_path / "out"
        argv = ["sweep", "--subcarriers", "100", "--iterations", "0", "--out", str(out)]
        assert main(argv) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == len(DEFAULT_SWEEP)
        assert all(row.endswith(",ok") for row in rows)

    def test_bad_flags_exit_2(self):
        for argv in (
            ["sweep", "--iterations", "2", "--epochs", "a,5"],
            ["sweep", "--symbols", "3"],
            ["sweep", "--dpd", "poly P=3 M=1", "--symbols", "3"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_malformed_sweep_csv_exits_2(self, tmp_path):
        path = tmp_path / "sweep.csv"
        for text in (
            "",
            "n_params,n_mults,aclr_db,evm_pct,mode,status\n8,27,-40.0,1.0,float,ok\n",
            "descriptor,n_params,n_mults,aclr_db,evm_pct,mode,status\npoly P=7 M=1,8\n",
        ):
            path.write_text(text)
            assert main(["report", "--sweep", str(path)]) == 2

    def test_only_a_polynomial_fit_imports_scipy(self, tmp_path):
        # scipy.fft and scipy.linalg cost every process ~0.35 s and ~33 MB; only
        # the polynomial least-squares solve needs scipy, and only scipy.linalg
        script = """
import json, sys
from dpdkit.cli import main

def step(argv):
    code = main(argv) if argv else 0
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    return [code, loaded]

steps = [step(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps(steps))
"""
        nn_sweep = ["--dpd", "nn K=1 N=6", "--iterations", "1", "--epochs", "1"]
        scipy_free = [
            [],
            ["generate", "--symbols", "1", "--wave-seed", "3", "--out", "frame.csv"],
            ["psd", "--out", "psd.csv", "frame.csv"],
            ["sweep", *nn_sweep, "--wave-seed", "1", "--out", "nn"],
            ["report", "--sweep", "nn"],
        ]
        poly = ["sweep", "--dpd", "poly P=3", "--iterations", "1", "--wave-seed", "1",
                "--out", "poly"]
        src = str(Path(dpdkit.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(scipy_free + [poly])],
            capture_output=True, text=True, env=env, check=True, cwd=tmp_path,
        ).stdout
        steps = json.loads(out.splitlines()[-1])
        for argv, (code, loaded) in zip(scipy_free, steps):
            assert (code, loaded) == (0, []), argv
        code, loaded = steps[-1]
        assert code == 0
        assert "scipy.linalg" in loaded
        assert not [m for m in loaded if m.startswith(("scipy.fft", "scipy.signal"))]

    def test_missing_spec_file_exits_2(self, tmp_path):
        assert main(["sweep", "--spec", str(tmp_path / "nope.json")]) == 2

    def test_bad_spec_contents_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "exp.json"
        bad_specs = [
            {"dpd_list": []},
            {"train": {"bogus": 1}},
            {"waveform": {"nope": 2}},
            {"train": {"epochs_per_iteration": 5}},
            {"seed": 3},  # the seed lives under train
            {"seed": "x"},
            {"waveform": {"n_symbols": 2}},  # train.train_symbols/val_symbols size the frames
            {"dpd_list": [{"type": "poly", "P": 7, "taps": 1}]},  # descriptors are text
            {"dpd_list": ["poly P=3", "poly P=3 M=1"]},  # one design point twice
            # fixed settings, not spec keys
            {"train": {"adam_beta1": 0.5}},
            {"fixed_point": {"rounding": "truncate"}},
            [],
        ]
        # counts, seeds and bit widths are integers, rates and spacings finite
        # reals; the error names the field
        named = [
            ("train.seed", {"train": {"seed": "x"}}),
            ("train.val_symbols", {"train": {"val_symbols": 2.0}}),
            ("train.batch_size", {"train": {"batch_size": 512.5}}),
            ("train.epochs_per_iteration", {"train": {"epochs_per_iteration": [2.5, 1]}}),
            ("waveform.n_subcarriers", {"waveform": {"n_subcarriers": 600.5}}),
            ("waveform.oversampling_factor", {"waveform": {"oversampling_factor": 4.0}}),
            ("waveform.seed", {"waveform": {"seed": 1.5}}),
            ("fixed_point.frac_bits", {"fixed_point": {"frac_bits": 14.5}}),
            # float64 cannot emulate a word wider than 54 bits exactly
            ("fixed_point.total_bits", {"fixed_point": {"total_bits": 60, "frac_bits": 59}}),
            ("train.learning_rate", {"train": {"learning_rate": "x"}}),
            ("train.learning_rate", {"train": {"learning_rate": float("nan")}}),
            ("train.learning_rate", {"train": {"learning_rate": float("inf")}}),
            ("train.learning_rate", {"train": {"learning_rate": True}}),
            ("train.learning_rate", {"train": {"learning_rate": 0}}),
            ("waveform.subcarrier_spacing_hz", {"waveform": {"subcarrier_spacing_hz": "x"}}),
            ("waveform.subcarrier_spacing_hz", {"waveform": {"subcarrier_spacing_hz": float("nan")}}),
            ("waveform.subcarrier_spacing_hz", {"waveform": {"subcarrier_spacing_hz": -15e3}}),
            ("list of descriptor strings", {"dpd_list": "poly P=3"}),
        ]
        for raw in bad_specs:
            spec.write_text(json.dumps(raw))
            assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "run")]) == 2
        capsys.readouterr()
        for field, raw in named:
            spec.write_text(json.dumps(raw))
            assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "run")]) == 2
            assert field in capsys.readouterr().err

    def test_failed_row_exits_1(self, tmp_path):
        spec = tmp_path / "exp.json"
        spec.write_text(
            json.dumps(
                {
                    "waveform": {"seed": 1},
                    "train": {
                        "outer_iterations": 1,
                        "epochs_per_iteration": [1],
                        "learning_rate": 1e160,
                        "train_symbols": 1,
                        "val_symbols": 1,
                    },
                    "dpd_list": ["nn K=1 N=4"],
                    "output_dir": str(tmp_path / "run"),
                }
            )
        )
        with np.errstate(all="ignore"):
            assert main(["sweep", "--spec", str(spec)]) == 1

    def test_flags_override_spec_file(self, tmp_path):
        spec = tmp_path / "exp.json"
        spec.write_text(
            json.dumps(
                {
                    "waveform": {"seed": 1},
                    "train": {"train_symbols": 1, "val_symbols": 1},
                    "dpd_list": ["poly P=9 M=1"],
                    "output_dir": str(tmp_path / "run"),
                }
            )
        )
        code = main(["sweep", "--spec", str(spec), "--dpd", "poly P=3 M=1"])
        assert code == 0
        text = (tmp_path / "run" / "sweep.csv").read_text()
        assert "poly P=3 M=1" in text and "P=9" not in text
