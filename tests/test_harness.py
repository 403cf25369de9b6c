"""Sweep harness and CLI: descriptor parsing, orchestration, artifacts."""

import concurrent.futures
import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import Future
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dpdkit
from dpdkit import complexity, harness, metrics, training
from dpdkit.cli import _SWEEP_FLAGS, _build_parser, _spec_from_args, main
from dpdkit.complexity import FAMILIES, nn_count, parse_descriptor, poly_count
from dpdkit.errors import AlignmentError, ConfigurationError, MetricError
from dpdkit.fixedpoint import FixedFormat, FixedPointStats
from dpdkit.harness import (
    DEFAULT_SWEEP,
    ExperimentSpec,
    descriptor_slug,
    emit_psd_overlay,
    run_sweep,
)
from dpdkit.mempoly import PolyShape, load_poly_model
from dpdkit.metrics import _scorer, psd_welch
from dpdkit.nn import load_net
from dpdkit.ofdm import OfdmConfig, generate_ofdm
from dpdkit.pa import load_default_pa, save_pa_profile
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
    return _scorer(load_default_pa(), val_cfg, ref)(x_val)[1:]


class TestParseDescriptor:
    def test_poly_dict(self):
        family, shape, report = parse_descriptor("poly L=1 Q=3 M=2 P=7")
        assert family is FAMILIES["poly"]
        assert shape == PolyShape(7, 2, 3, 1)
        assert report == poly_count(shape)

    def test_poly_dict_defaults(self):
        _, shape, _ = parse_descriptor("poly P=9")
        assert shape == PolyShape(9, 1)

    def test_nn_dict(self):
        family, params, report = parse_descriptor("nn K=2 N=8")
        assert family is FAMILIES["nn"]
        assert params == (2, 8)
        assert report == nn_count(2, 8)

    def test_text_forms(self):
        assert parse_descriptor("poly P=11 M=2")[1] == PolyShape(11, 2)
        assert parse_descriptor("poly P=7 M=2 Q=3 L=1")[1] == PolyShape(7, 2, 3, 1)
        assert parse_descriptor("poly P=3 M=1 +dc")[1] == PolyShape(3, 1, include_dc=True)
        for text, params in [("nn_K1_N14", (1, 14)), ("nn K=2 N=8", (2, 8))]:
            family, parsed, _ = parse_descriptor(text)
            assert family is FAMILIES["nn"]
            assert parsed == params

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
        family, parsed, parsed_report = parse_descriptor(report.model_descriptor)
        assert family is FAMILIES["poly"]
        assert (parsed, parsed_report) == (shape, report)

    @given(k=st.integers(1, 16), n=st.integers(1, 512))
    def test_nn_descriptor_text_round_trips(self, k, n):
        report = nn_count(k, n)
        family, parsed, parsed_report = parse_descriptor(report.model_descriptor)
        assert family is FAMILIES["nn"]
        assert (parsed, parsed_report) == ((k, n), report)

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
        for bad in ("poly P=3", ("poly P=3", 7), ["poly P=3", 7], [{"type": "poly", "P": 3}]):
            with pytest.raises(ConfigurationError, match="list of descriptor strings"):
                ExperimentSpec(dpd_list=bad)

    @pytest.mark.parametrize("field, value", [
        ("waveform", {"seed": 1}), ("waveform", TrainConfig()), ("train", {"seed": 1}),
        ("train", None), ("fixed_point", {"frac_bits": 15}), ("fixed_point", "q15"),
    ])
    def test_section_of_the_wrong_type_rejected(self, tmp_path, field, value):
        # from_dict builds each section, but a spec built in Python used to take a dict there
        # and fail in the sweep, after making its output directory
        with pytest.raises(ConfigurationError, match=f"^{field} must be of type") as info:
            ExperimentSpec(**{field: value}, output_dir=str(tmp_path / "out"))
        assert info.value.field == field

    def test_frozen_spec_rechecks_through_replace(self):
        # an assigned section used to bypass every check and fail in the sweep with AttributeError
        spec = ExperimentSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.train = {"seed": 1}
        with pytest.raises(ConfigurationError, match="^train must be of type") as info:
            replace(spec, train={"seed": 1})
        assert info.value.field == "train"
        # dpd_list is stored as a tuple, and replace rechecks a tuple as the constructor does
        assert isinstance(spec.dpd_list, tuple) and spec.dpd_list == DEFAULT_SWEEP
        with pytest.raises(ConfigurationError, match="both name the design point"):
            replace(spec, dpd_list=(*spec.dpd_list, "poly P=7"))

    def test_dpd_list_cannot_change_in_place(self):
        # a list field used to take extend() past the checks, the caller's list stayed shared
        # with the spec, and an append() to a list DEFAULT_SWEEP changed every later default
        descriptors = ["poly P=3"]
        spec = ExperimentSpec(dpd_list=descriptors)
        descriptors.append("poly P=3 M=1")
        assert spec.dpd_list == ("poly P=3",)
        with pytest.raises(AttributeError):
            spec.dpd_list.extend(["poly P=3 M=1", 7])
        with pytest.raises(AttributeError):
            DEFAULT_SWEEP.append("poly P=3")
        assert ExperimentSpec().dpd_list == DEFAULT_SWEEP == (
            "nn K=1 N=6", "nn K=1 N=14", "poly P=7 M=1", "poly P=11 M=2")

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

    def test_from_dict_resolves_paths_against_base_dir(self, tmp_path):
        base = tmp_path / "specs"
        spec = ExperimentSpec.from_dict({"pa_profile_path": "pa.txt", "output_dir": "out"},
                                        base_dir=base)
        assert (spec.pa_profile_path, spec.output_dir) == (str(base / "pa.txt"), str(base / "out"))
        elsewhere = {"pa_profile_path": str(tmp_path / "pa.txt"), "output_dir": str(tmp_path / "o")}
        spec = ExperimentSpec.from_dict(elsewhere, base_dir=base)
        assert (spec.pa_profile_path, spec.output_dir) == (str(tmp_path / "pa.txt"),
                                                           str(tmp_path / "o"))
        assert ExperimentSpec.from_dict({"pa_profile_path": "default"},
                                        base_dir=base).pa_profile_path == "default"
        # without a base directory every path is kept as it is given
        spec = ExperimentSpec.from_dict({"pa_profile_path": "pa.txt", "output_dir": "out"})
        assert (spec.pa_profile_path, spec.output_dir) == ("pa.txt", "out")

    def test_path_fields_must_be_paths(self, tmp_path):
        spec = ExperimentSpec(output_dir=tmp_path / "out")
        assert spec.output_dir == tmp_path / "out"  # a Path is a path too
        read_end, write_end = os.pipe()
        try:
            # an int profile path would be opened as that file descriptor, then closed
            for make in (lambda: ExperimentSpec(pa_profile_path=read_end),
                         lambda: ExperimentSpec.from_dict({"pa_profile_path": read_end}),
                         lambda: ExperimentSpec.from_dict({"pa_profile_path": read_end},
                                                          base_dir=tmp_path)):
                with pytest.raises(ConfigurationError) as info:
                    make()
                assert info.value.field == "pa_profile_path"
            os.fstat(read_end)  # still open
            for bad in (3, 2.5, ["out"]):
                with pytest.raises(ConfigurationError) as info:
                    ExperimentSpec(output_dir=bad)
                assert info.value.field == "output_dir"
        finally:
            os.close(read_end)
            os.close(write_end)

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

    def test_readme_python_examples_run(self):
        # the blocks build on each other (the training example reuses the quick
        # start's frame), so they run in order in one namespace
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        examples = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
        assert len(examples) >= 2
        namespace = {}
        for text in examples:
            exec(compile(text, "README.md", "exec"), namespace)
        assert namespace["u"].samples.shape == namespace["x"].samples.shape


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
        assert np.abs(model.theta.real).max() < 1.0

    def test_nn_row_trains_and_persists(self, tmp_path, monkeypatch):
        logs = []

        def logged(*args):
            net, log = training.run_full_training(*args)
            logs.append(log)
            return net, log

        monkeypatch.setattr(complexity, "run_full_training", logged)
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
        # each row reads back to the logged record, its losses to the same floats
        rows = [line.split(",") for line in log_lines[1:]]
        assert [(int(i), phase, int(e), float(t), float(v)) for i, phase, e, t, v in rows] == [
            astuple(record) for record in logs[0].records
        ]

    def test_one_derivation_serves_the_whole_sweep(self, tmp_path, monkeypatch):
        # the harness and an nn row's training both build their frames from spec.frames()
        generated = []

        def recording(module):
            generate = module.generate_ofdm

            def wrapper(cfg):
                generated.append((module, cfg))
                return generate(cfg)
            monkeypatch.setattr(module, "generate_ofdm", wrapper)

        recording(harness)
        recording(training)
        scored = []
        aclr, demodulate = metrics.aclr_db_gated, metrics.demodulate_ofdm
        monkeypatch.setattr(metrics, "aclr_db_gated",
                            lambda y, cfg: scored.append(cfg) or aclr(y, cfg))
        monkeypatch.setattr(metrics, "demodulate_ofdm",
                            lambda y, cfg: scored.append(cfg) or demodulate(y, cfg))
        train = TrainConfig(outer_iterations=1, epochs_per_iteration=(30,), train_symbols=2,
                            val_symbols=1)
        spec = small_spec(tmp_path, dpd_list=["nn K=1 N=4"], train=train)
        assert [row.status for row in run_sweep(spec)] == ["ok"]
        # train sizes both frames, and the held-out one takes the next seed
        frames = list(spec.frames())
        assert frames == [replace(SMALL_WAVE, n_symbols=2), replace(SMALL_WAVE, seed=2)]
        assert [cfg for module, cfg in generated if module is harness] == frames
        assert [cfg for module, cfg in generated if module is training] == frames
        assert len(scored) == 2 and all(cfg == frames[1] for cfg in scored)

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

    def test_amplifier_profile_is_read_once_per_sweep(self, tmp_path, monkeypatch):
        # each row gets a fresh copy of the one amplifier, so a profile edited mid-sweep
        # cannot give two rows different amplifiers
        loads = []

        def counted_load():
            loads.append(1)
            return load_default_pa()

        monkeypatch.setattr(harness, "load_default_pa", counted_load)
        spec = small_spec(tmp_path, dpd_list=["poly P=3 M=1", "poly P=5 M=1"], train=PASSTHROUGH)
        assert [row.status for row in run_sweep(spec)] == ["ok", "ok"]
        assert len(loads) == 1

    def test_rows_call_the_family_functions_through_module_globals(self, tmp_path, monkeypatch):
        # a family record holds no public function, so a rebinding of the family module's
        # globals (a tracing wrapper, say) reaches every fit, forward and save a sweep row makes
        names = ("fit_ila", "poly_predistort", "poly_forward_fixed", "save_poly_model",
                 "run_full_training", "nn_forward", "nn_forward_fixed", "save_net")
        calls = Counter()
        for name in names:
            def counted(*args, _name=name, _original=getattr(complexity, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(complexity, name, counted)
        # seed 2: one epoch leaves nn K=1 N=4 within the amplifier's drive
        train = TrainConfig(outer_iterations=1, epochs_per_iteration=(1,), train_symbols=1,
                            val_symbols=1, seed=2)
        spec = small_spec(tmp_path, dpd_list=["poly P=5 M=1", "nn K=1 N=4"], train=train,
                          fixed_point=FixedFormat())
        rows = run_sweep(spec)
        assert [(row.descriptor, row.mode, row.status) for row in rows] == [
            ("poly P=5 M=1", "float", "ok"), ("poly P=5 M=1", "fixed", "ok"),
            ("nn_K1_N4", "float", "ok"), ("nn_K1_N4", "fixed", "ok"),
        ]
        assert calls == Counter(dict.fromkeys(names, 1))

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


class InlineExecutor:
    """A ThreadPoolExecutor stand-in that runs each task when it is submitted."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 — the future carries it
            future.set_exception(exc)
        return future


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def fail_fixed_forward(*args):
    raise RuntimeError("fixed forward")


class TestTwoThreadScoring:
    """A row's fixed-point forward runs on the sweep's helper thread."""

    # seed 2: one epoch leaves nn K=1 N=4 within the amplifier's drive; seed 0 overdrives it
    TRAIN = TrainConfig(outer_iterations=1, epochs_per_iteration=(1,), train_symbols=1,
                        val_symbols=1, seed=2)

    def fixed_spec(self, tmp_path, out="out", **overrides):
        overrides.setdefault("train", self.TRAIN)
        return small_spec(tmp_path, fixed_point=FixedFormat(), output_dir=str(tmp_path / out),
                          **overrides)

    def test_same_tree_as_tasks_run_inline(self, tmp_path, monkeypatch):
        dpd_list = ["poly P=5 M=2 Q=3 L=1", "nn K=1 N=4"]
        interval = sys.getswitchinterval()
        # switching every microsecond interleaves the helpers with the main thread at many
        # more points than the default 5 ms
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_sweep(self.fixed_spec(tmp_path, "threaded", dpd_list=dpd_list))
        finally:
            sys.setswitchinterval(interval)
        # the training phases' helpers run inline too
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlineExecutor)
        inline = run_sweep(self.fixed_spec(tmp_path, "inline", dpd_list=dpd_list))
        assert [row.status for row in threaded] == ["ok"] * 4
        assert threaded == inline
        assert tree_bytes(tmp_path / "threaded") == tree_bytes(tmp_path / "inline")

    def test_float_transmit_error_outranks_a_failing_fixed_forward(self, tmp_path, monkeypatch):
        events = []

        def slow_failing_forward(*args):
            time.sleep(0.2)
            events.append("fixed forward")
            fail_fixed_forward()

        def recorded_fit(*args, _fit=complexity.fit_ila):
            events.append("next fit")
            return _fit(*args)

        monkeypatch.setattr(complexity, "nn_forward_fixed", slow_failing_forward)
        monkeypatch.setattr(complexity, "fit_ila", recorded_fit)
        rows = run_sweep(self.fixed_spec(tmp_path, dpd_list=["nn K=1 N=4", "poly P=5 M=1"],
                                         train=replace(self.TRAIN, seed=0)))
        assert rows[0].status.startswith("error: InputRangeError: input peak")
        assert not (tmp_path / "out" / "nn_K1_N4" / "psd.csv").exists()
        assert [row.status for row in rows[1:]] == ["ok", "ok"]
        # the failed row waited for its helper task before the next row began
        assert events == ["fixed forward", "next fit"]

    def test_float_metric_error_outranks_a_fixed_chain_error(self, tmp_path, monkeypatch):
        def failing_aclr(y, cfg):
            raise MetricError("float ACLR")

        monkeypatch.setattr(complexity, "poly_forward_fixed", fail_fixed_forward)
        monkeypatch.setattr(metrics, "aclr_db_gated", failing_aclr)
        rows = run_sweep(self.fixed_spec(tmp_path))
        assert [row.status for row in rows] == ["error: MetricError: float ACLR"]
        assert not (tmp_path / "out" / "poly_P7_M1" / "psd.csv").exists()

    def test_fixed_transmit_error_leaves_psd_written(self, tmp_path, monkeypatch):
        run_sweep(self.fixed_spec(tmp_path, "clean"))

        def overdriving_forward(model, x, fmt, stats, _forward=complexity.poly_forward_fixed):
            out = _forward(model, x, fmt, stats)
            return IqSignal(4 * out.samples, out.sample_rate_hz)

        monkeypatch.setattr(complexity, "poly_forward_fixed", overdriving_forward)
        rows = run_sweep(self.fixed_spec(tmp_path))
        assert len(rows) == 1 and rows[0].status.startswith("error: InputRangeError: input peak")
        psd = "poly_P7_M1/psd.csv"
        assert (tmp_path / "out" / psd).read_bytes() == (tmp_path / "clean" / psd).read_bytes()

    def test_no_thread_outlives_a_sweep(self, tmp_path, monkeypatch):
        before = threading.active_count()
        rows = run_sweep(self.fixed_spec(tmp_path, dpd_list=["poly P=5 M=1", "nn K=1 N=4"]))
        assert [row.status for row in rows] == ["ok"] * 4
        assert threading.active_count() == before
        monkeypatch.setattr(complexity, "poly_forward_fixed", fail_fixed_forward)
        rows = run_sweep(self.fixed_spec(tmp_path, dpd_list=["poly P=5 M=1", "nn K=1 N=4"]))
        assert [row.status for row in rows] == ["error: RuntimeError: fixed forward", "ok", "ok"]
        assert threading.active_count() == before


class TestTransmitOrder:
    """A row's fit transmits first, then the scorer transmits the float output and then the
    fixed one; each transmit's noise draw is keyed by the amplifier's call index."""

    # n ILA iterations transmit n times; n outer iterations of an nn row transmit 2n times
    @pytest.mark.parametrize("descriptor, iterations, fit_transmits", [
        ("poly P=5 M=1", 1, 1), ("poly P=5 M=1", 3, 3), ("nn K=1 N=4", 1, 2), ("nn K=1 N=4", 2, 4),
    ])
    def test_float_then_fixed_follow_the_fit(self, tmp_path, descriptor, iterations,
                                             fit_transmits):
        # seed 2: the nets stay within the amplifier's drive
        train = TrainConfig(outer_iterations=iterations, epochs_per_iteration=(1,) * iterations,
                            train_symbols=1, val_symbols=1, seed=2)
        spec = small_spec(tmp_path, dpd_list=[descriptor], train=train, fixed_point=FixedFormat())
        rows = run_sweep(spec)
        assert [row.status for row in rows] == ["ok", "ok"]
        family, _, report = parse_descriptor(descriptor)
        load = load_poly_model if family is FAMILIES["poly"] else load_net
        model = load(str(tmp_path / "out" / descriptor_slug(report.model_descriptor) / "model.txt"))
        val_cfg = spec.frames()[1]
        ref_grid, x_val = generate_ofdm(val_cfg)
        float_out = family.forward(model, x_val)
        fixed_out = family.forward_fixed(model, x_val, spec.fixed_point, FixedPointStats())

        def scored_at(call_index, u):
            pa = load_default_pa()
            for _ in range(call_index):
                pa.apply(x_val)
            return _scorer(pa, val_cfg, ref_grid)(u)[1:]

        n = fit_transmits
        got = [(row.aclr_db, row.evm_pct) for row in rows]
        assert got == [scored_at(n, float_out), scored_at(n + 1, fixed_out)]
        # the index keys the noise: the same output one transmit earlier scores otherwise
        assert scored_at(n - 1, float_out) != got[0]


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


# the (section, field) each sweep flag overrides, and a (command-line text, parsed value)
# for it that differs from the default spec's
_FLAG_TARGETS = {flag: target for flag, target, _ in _SWEEP_FLAGS if target}
_FLAG_VALUES = {
    "--dpd": ("poly P=3", ["poly P=3"]),
    "--pa": ("pa.txt", "pa.txt"),
    "--out": ("elsewhere", "elsewhere"),
    "--seed": ("3", 3),
    "--lr": ("0.01", 0.01),
    "--batch": ("256", 256),
    "--subcarriers": ("300", 300),
    "--spacing": ("30000", 30000.0),
    "--constellation": ("qpsk", "qpsk"),
    "--oversampling": ("3", 3),
    "--wave-seed": ("5", 5),
}


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

    def test_psd_verb_reads_a_path_holding_an_equals_sign(self, tmp_path, monkeypatch):
        # an existing file is read as a path; name=path splits at the first "="
        monkeypatch.chdir(tmp_path)
        Path("run=1").mkdir()
        main(["generate", "--symbols", "1", "--wave-seed", "3", "--out", "run=1/sig.csv"])
        assert main(["psd", "--out", "psd.csv", "run=1/sig.csv", "named=run=1/sig.csv"]) == 0
        assert Path("psd.csv").read_text().splitlines()[0] == "freq_hz,sig_db,named_db"

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

    def test_psd_verb_rejects_an_infinite_sample_rate(self, tmp_path, capsys):
        sig = tmp_path / "frame.csv"
        main(["generate", "--symbols", "1", "--wave-seed", "3", "--out", str(sig)])
        meta = Path(f"{sig}.meta")
        meta.write_text(re.sub(r"sample_rate_hz: .*", "sample_rate_hz: inf", meta.read_text()))
        capsys.readouterr()
        assert main(["psd", "--out", str(tmp_path / "psd.csv"), str(sig)]) == 2
        assert "frame.csv.meta" in capsys.readouterr().err

    def test_bad_pa_profile_exits_2(self, tmp_path, capsys):
        profile = tmp_path / "pa.txt"
        save_pa_profile(load_default_pa(), profile)
        good = profile.read_text()
        for old, new in (("noise_stddev: 0.0013", "noise_stddev: nan"), ("p_max: 7", "p_max: 2")):
            profile.write_text(good.replace(old, new))
            capsys.readouterr()
            argv = ["sweep", "--pa", str(profile), "--dpd", "poly P=3", "--iterations", "0",
                    "--out", str(tmp_path / "run")]
            assert main(argv) == 2
            assert "pa.txt" in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    def test_epochs_alone_sets_the_iteration_count(self, tmp_path):
        spec = _spec_from_args(_build_parser().parse_args(["sweep", "--epochs", "3,2,1"]))
        assert spec.train.outer_iterations == 3 and spec.train.epochs_per_iteration == (3, 2, 1)
        out = tmp_path / "run"
        assert main(["sweep", "--dpd", "poly P=3", "--epochs", "1", "--out", str(out)]) == 0
        # one ILA iteration: the header and one residual row
        assert len((out / "poly_P3_M1" / "trainlog.csv").read_text().splitlines()) == 2

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

    def test_report_skips_blank_and_comment_lines(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["sweep", "--dpd", "poly P=5 M=1", "--wave-seed", "1", "--out", str(out),
                "--iterations", "0"]
        assert main(argv) == 0
        clean = (out / "sweep.csv").read_text()
        noted = tmp_path / "noted.csv"
        noted.write_text("# note\n" + clean + "\n")
        reports = []
        for sweep in (out / "sweep.csv", noted):
            reports.append(tmp_path / f"report_{sweep.name}")
            assert main(["report", "--sweep", str(sweep), "--out", str(reports[-1])]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
        # a bad row is named by its line in the file, comment lines counted
        noted.write_text("# note\n" + clean + "poly P=7 M=1,8\n")
        capsys.readouterr()
        assert main(["report", "--sweep", str(noted)]) == 2
        assert f"noted.csv:{len(clean.splitlines()) + 2}: expected" in capsys.readouterr().err

    def test_only_a_polynomial_fit_imports_scipy(self, tmp_path):
        # scipy.fft and scipy.linalg cost every process ~0.35 s and ~33 MB; only
        # the polynomial least-squares solve needs scipy, and only its compiled
        # LAPACK module, not the scipy.linalg package
        script = """
import json, sys
from dpdkit import mempoly
from dpdkit.cli import main

def step(argv):
    finders = list(sys.meta_path)
    code = main(argv) if argv else 0
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    return [code, loaded, sys.meta_path == finders, mempoly._zgelsy.cache_info().currsize]

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
        for argv, result in zip(scipy_free, steps):
            assert result == [0, [], True, 0], argv
        code, loaded, same_finders, gelsy_loaded = steps[-1]
        assert (code, gelsy_loaded) == (0, 1)
        # LAPACK is loaded without leaving a module or an import hook registered
        assert same_finders
        assert "scipy.linalg._flapack" not in loaded
        assert "scipy.linalg" not in loaded
        assert not [m for m in loaded if m.startswith(("scipy.fft", "scipy.signal"))]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--spec", "{bad}", "--out", "{out}"],
        ["sweep", "--pa", "{bad}", "--dpd", "poly P=3", "--iterations", "0", "--out", "{out}"],
        ["report", "--sweep", "{bad}"],
    ])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        out = tmp_path / "run"
        assert main([arg.format(bad=bad, out=out) for arg in argv]) == 2
        assert f"{bad}: not UTF-8 text: byte 0xff at offset 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", _FLAG_TARGETS)
    def test_a_sweep_flag_overrides_its_one_field(self, flag):
        text, value = _FLAG_VALUES[flag]
        spec = _spec_from_args(_build_parser().parse_args(["sweep", flag, text]))
        section, name = _FLAG_TARGETS[flag]
        default = ExperimentSpec()
        if section:
            expected = replace(default, **{section: replace(getattr(default, section),
                                                            **{name: value})})
        else:
            expected = replace(default, **{name: value})
        assert expected != default
        assert spec == expected

    @pytest.mark.parametrize("flag", [f for f, t in _FLAG_TARGETS.items() if t[0] == "waveform"])
    def test_generate_records_each_waveform_flag(self, tmp_path, flag):
        text, value = _FLAG_VALUES[flag]
        out = tmp_path / "frame.csv"
        assert main(["generate", "--symbols", "1", flag, text, "--out", str(out)]) == 0
        meta = Path(f"{out}.meta").read_text().splitlines()
        assert f"{_FLAG_TARGETS[flag][1]}: {value}" in meta

    def test_generate_names_an_overflowing_spacing(self, tmp_path, capsys):
        out = tmp_path / "frame.csv"
        assert main(["generate", "--spacing", "1e308", "--out", str(out)]) == 2
        assert "subcarrier_spacing_hz" in capsys.readouterr().err
        assert not out.exists()

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
            {"waveform": {"n_symbols": 1}},  # not a key, even at its default value
            {"waveform": None},  # a section is an object
            {"waveform": 5},
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
            ("train.epochs_per_iteration", {"train": {"epochs_per_iteration": "20,5"}}),
            ("waveform.n_subcarriers", {"waveform": {"n_subcarriers": 600.5}}),
            ("waveform.oversampling_factor", {"waveform": {"oversampling_factor": 4.0}}),
            ("waveform.seed", {"waveform": {"seed": 1.5}}),
            ("waveform.seed", {"waveform": {"seed": -1}}),
            ("fixed_point.frac_bits", {"fixed_point": {"frac_bits": 14.5}}),
            # JSON true and false are not counts
            ("train.seed", {"train": {"seed": True}}),
            ("train.batch_size", {"train": {"batch_size": True}}),
            ("train.outer_iterations",
             {"train": {"outer_iterations": False, "epochs_per_iteration": []}}),
            ("waveform.n_subcarriers", {"waveform": {"n_subcarriers": True}}),
            ("fixed_point.frac_bits", {"fixed_point": {"frac_bits": True}}),
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
            # out-of-range values name their field too
            ("train.batch_size", {"train": {"batch_size": 0}}),
            ("train.train_symbols", {"train": {"train_symbols": 0}}),
            ("train.val_symbols", {"train": {"val_symbols": 0}}),
            ("train.seed", {"train": {"seed": -1}}),
            ("train.outer_iterations",
             {"train": {"outer_iterations": -1, "epochs_per_iteration": []}}),
            ("train.epochs_per_iteration", {"train": {"epochs_per_iteration": [20, 0]}}),
            ("train.epochs_per_iteration", {"train": {"outer_iterations": 3}}),
            ("waveform.n_subcarriers", {"waveform": {"n_subcarriers": 0}}),
            ("waveform.constellation", {"waveform": {"constellation": "qam8"}}),
            ("waveform.oversampling_factor", {"waveform": {"oversampling_factor": 1}}),
            ("fixed_point.frac_bits", {"fixed_point": {"frac_bits": 16}}),
            ("fixed_point.frac_bits", {"fixed_point": {"total_bits": 8, "frac_bits": 0}}),
            # wrong-typed values are named too, not left to Path() or a dict lookup
            ("output_dir", {"output_dir": None}),
            ("output_dir", {"output_dir": 5}),
            ("waveform.constellation", {"waveform": {"constellation": ["qam16"]}}),
            # 4096 x 1e308 Hz overflows the sample rate
            ("waveform.subcarrier_spacing_hz", {"waveform": {"subcarrier_spacing_hz": 1e308}}),
            # frames too large for a numpy array, and a count too large for a float
            ("waveform.n_subcarriers", {"waveform": {"n_subcarriers": 10**30}}),
            ("waveform.n_subcarriers", {"waveform": {"n_subcarriers": 10**400}}),
            ("train.train_symbols", {"train": {"train_symbols": 10**18}}),
            ("train.val_symbols", {"train": {"val_symbols": 10**18}}),
        ]
        for raw in bad_specs:
            spec.write_text(json.dumps(raw))
            assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "run")]) == 2
            assert not (tmp_path / "run").exists()  # a spec error writes nothing
            if raw in ({"waveform": None}, {"waveform": 5}):
                assert "bad spec value in waveform:" in capsys.readouterr().err
        capsys.readouterr()
        for field, raw in named:
            spec.write_text(json.dumps(raw))
            assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "run")]) == 2
            assert not (tmp_path / "run").exists()
            err = capsys.readouterr().err
            assert field in err
            # a string of epochs is quoted whole, not read one character at a time
            if raw == {"train": {"epochs_per_iteration": "20,5"}}:
                assert "'20,5'" in err

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
