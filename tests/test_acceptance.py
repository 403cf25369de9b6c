"""End-to-end acceptance gate.

Seven checks, each a single test that prints one PASS line when its gates
hold. The expensive artifacts (two fully trained nets, two least-squares
fits) are shared through module-scoped fixtures, so the file runs in about
ten seconds; everything is seeded and single-valued, so the gates are
deterministic on a given machine.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from dpdkit.complexity import nn_count, parse_descriptor, poly_count
from dpdkit.fixedpoint import FixedFormat, FixedPointStats, nn_forward_fixed, poly_forward_fixed
from dpdkit.harness import DEFAULT_SWEEP, ExperimentSpec, run_sweep
from dpdkit.mempoly import MemoryPolyModel, PolyShape, fit_ila, poly_predistort, rescale_cascade_gain
from dpdkit.metrics import aclr_db_gated, evm_percent
from dpdkit.nn import (
    DenseNet,
    glorot_net,
    nn_backward,
    nn_backward_through_frozen,
    nn_forward,
)
from dpdkit.ofdm import OfdmConfig, demodulate_ofdm, generate_ofdm, _frame_scale
from dpdkit.pa import load_default_pa
from dpdkit.signals import IqSignal, write_signal_csv
from dpdkit.training import DEFAULT_PA_MODEL_SHAPE, TrainConfig, run_full_training
from multiply_counter import count_nn_multiplies, count_poly_multiplies

TRAIN_WAVE = OfdmConfig(n_symbols=10, seed=1)
VAL_WAVE = OfdmConfig(n_symbols=10, seed=2)
Q15 = FixedFormat()


@pytest.fixture(scope="module")
def frames():
    _, x_train = generate_ofdm(TRAIN_WAVE)
    ref_grid, x_val = generate_ofdm(VAL_WAVE)
    return x_train, x_val, ref_grid


@pytest.fixture(scope="module")
def baseline(frames):
    """ACLR/EVM of the bare amplifier on the held-out frame."""
    _, x_val, ref_grid = frames
    y = load_default_pa().apply(x_val)
    aclr = aclr_db_gated(y, VAL_WAVE)
    evm = evm_percent(ref_grid, demodulate_ofdm(y, VAL_WAVE))
    return aclr, evm


@pytest.fixture(scope="module")
def trained_nets():
    """Both headline nets, trained with the default two-phase schedule."""
    nets = {}
    for width in (6, 14):
        pa = load_default_pa()
        net, log = run_full_training(
            pa,
            shapes=((1, width), DEFAULT_PA_MODEL_SHAPE),
            cfg=TrainConfig(),
            waveform=TRAIN_WAVE,
        )
        nets[width] = (net, log)
    return nets


@pytest.fixture(scope="module")
def fitted_polys(frames):
    """Both headline polynomials, least-squares fitted on the training frame."""
    x_train, _, _ = frames
    fits = {}
    for shape in (PolyShape(7, 1), PolyShape(11, 2)):
        pa = load_default_pa()
        fits[poly_count(shape).model_descriptor], _ = fit_ila(pa, shape, x_train, 2)
    return fits


def _evaluate(predistorted: IqSignal, ref_grid) -> tuple[float, float]:
    y = load_default_pa().apply(predistorted)
    return (
        aclr_db_gated(y, VAL_WAVE),
        evm_percent(ref_grid, demodulate_ofdm(y, VAL_WAVE)),
    )


def test_1_multiplier_and_parameter_series(capsys):
    """Closed-form complexity counts reproduce the frozen reference series."""
    t0 = time.perf_counter()
    one_tap = {1: 3, 3: 10, 5: 18, 7: 27, 9: 37, 11: 48, 13: 60}
    two_tap = {1: 6, 3: 16, 5: 27, 7: 39, 9: 52, 11: 66, 13: 81}
    for p, expect in one_tap.items():
        assert poly_count(PolyShape(p, 1)).n_mults == expect
    for p, expect in two_tap.items():
        assert poly_count(PolyShape(p, 2)).n_mults == expect
    depth_two = {1: 5, 2: 12, 3: 21, 4: 32, 5: 45, 6: 60, 7: 77, 8: 96}
    for n, expect in depth_two.items():
        assert nn_count(2, n).n_mults == expect
    for n in range(1, 9):
        assert nn_count(1, n).n_mults == 4 * n
    assert nn_count(1, 6).n_params_real == 32
    assert nn_count(1, 14).n_params_real == 72
    assert poly_count(PolyShape(7, 1)).n_params_real == 8
    assert poly_count(PolyShape(11, 2)).n_params_real == 24
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"\nPASS 1/7 — complexity series match the frozen references ({elapsed:.3f}s)")


def _kink_distance(net, samples) -> float:
    """Smallest |pre-activation|; differencing near zero crosses the ReLU kink."""
    margin, h = np.inf, np.stack([samples.real, samples.imag])
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        pre = w @ h + b[:, None]
        margin = min(margin, float(np.abs(pre).min()))
        h = np.maximum(pre, 0.0)
    return margin


def test_2_gradients_match_finite_differences(capsys):
    """100 random nets: analytic gradients vs central differences, rel < 1e-5."""
    t0 = time.perf_counter()
    checked = 0
    for case in range(100):
        k = 1 + case % 3
        n = 1 + (5 * case) % 8
        # redraw (deterministically) while any pre-activation sits within 1e-4
        # of zero: an FD step shifts pre-activations by at most ~1e-5, so the
        # margin keeps the difference quotient on one side of every kink
        salt = 0
        while True:
            rng = np.random.default_rng(9000 + 131 * case + salt)
            net = glorot_net(k, n, seed=9000 + 131 * case + salt)
            for b in net.biases:
                b[:] = 0.1 * rng.standard_normal(b.shape)
            sig = IqSignal(
                0.4 * (rng.standard_normal(32) + 1j * rng.standard_normal(32)), 61.44e6
            )
            pa_net = glorot_net(1, 4, seed=50000 + 131 * case + salt)
            margin = _kink_distance(net, sig.samples)
            if case % 2 != 0:
                margin = min(margin, _kink_distance(pa_net, nn_forward(net, sig).samples))
            if margin > 1e-4:
                break
            salt += 1
        if case % 2 == 0:
            target = IqSignal(
                0.4 * (rng.standard_normal(32) + 1j * rng.standard_normal(32)), 61.44e6
            )
            grads = nn_backward(net, sig, target)

            def loss_fn(cand):
                err = nn_forward(cand, sig).samples - target.samples
                return float((np.sum(err.real**2) + np.sum(err.imag**2)) / (2 * len(sig)))

        else:
            grads = nn_backward_through_frozen(net, pa_net, sig)

            def loss_fn(cand):
                err = nn_forward(pa_net, nn_forward(cand, sig)).samples - sig.samples
                return float((np.sum(err.real**2) + np.sum(err.imag**2)) / (2 * len(sig)))

        eps = 1e-5
        for params, analytic in ((net.weights, grads.weights), (net.biases, grads.biases)):
            for arr, g in zip(params, analytic):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + eps
                    up = loss_fn(net)
                    arr[idx] = orig - eps
                    down = loss_fn(net)
                    arr[idx] = orig
                    fd = (up - down) / (2 * eps)
                    rel = abs(g[idx] - fd) / max(abs(fd), 1e-8)
                    assert rel < 1e-5, f"case {case} {arr.shape}{idx}: rel={rel:.2e}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 100
    assert elapsed < 30.0
    with capsys.disabled():
        print(f"PASS 2/7 — 100 gradient checks within 1e-5 of finite differences ({elapsed:.1f}s)")


class _InverseOfCubic:
    """Amplifier whose exact postinverse is the cubic u(1 + c|u|^2)."""

    c = 0.10 + 0.05j

    def apply(self, signal):
        rho = np.abs(signal.samples)
        lo = np.zeros_like(rho)
        hi = rho + 1e-9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            too_big = mid * np.abs(1.0 + self.c * mid**2) > rho
            hi = np.where(too_big, mid, hi)
            lo = np.where(too_big, lo, mid)
        r = 0.5 * (lo + hi)
        phase = np.angle(signal.samples) - np.angle(1.0 + self.c * r**2)
        out = r * np.exp(1j * phase)
        out[rho == 0] = 0
        return IqSignal(out, signal.sample_rate_hz)


def test_3_linearization_quality(capsys, frames, baseline, trained_nets, fitted_polys):
    """Both families beat the bare amplifier; the solver nails an in-class inverse."""
    _, x_val, ref_grid = frames
    aclr0, evm0 = baseline
    # expected around -30.65 dB / 4.32 % on this frame
    assert aclr0 == pytest.approx(-30.648178102922717, abs=1e-3)
    assert evm0 == pytest.approx(4.315685831594685, abs=1e-3)

    net14, _ = trained_nets[14]
    aclr_nn, evm_nn = _evaluate(nn_forward(net14, x_val), ref_grid)
    assert aclr_nn <= aclr0 - 5.0  # measured: about 7.2 dB better
    assert aclr_nn == pytest.approx(-37.84, abs=1.0)
    assert evm_nn < evm0

    model = fitted_polys["poly P=7 M=1"]
    aclr_poly, evm_poly = _evaluate(poly_predistort(model, x_val), ref_grid)
    assert aclr_poly <= aclr0 - 15.0  # measured: about 17.6 dB better
    assert evm_poly < 0.5

    rng = np.random.default_rng(3)
    raw = 0.25 * (rng.standard_normal(4000) + 1j * rng.standard_normal(4000))
    probe = IqSignal(raw * (0.9 / np.abs(raw).max()), 61.44e6)
    _, residuals = fit_ila(_InverseOfCubic(), PolyShape(7, 1), probe, 2)
    assert residuals[-1] < 1e-6

    with capsys.disabled():
        print(
            f"PASS 3/7 — net {aclr_nn:.2f} dB / poly {aclr_poly:.2f} dB vs bare {aclr0:.2f} dB;"
            f" in-class inverse residual {residuals[-1]:.1e}"
        )


def test_4_training_log_structure(capsys, trained_nets):
    """Two-phase schedule logs every epoch and the losses actually fall."""
    _, log = trained_nets[14]
    assert len(log.records) == 50
    pa_rows = [r for r in log.records if r.phase == "pa_model"]
    dpd_rows = [r for r in log.records if r.phase == "dpd"]
    assert len(pa_rows) == 25 and len(dpd_rows) == 25
    for rows in (pa_rows, dpd_rows):
        assert [r.iteration for r in rows] == [1] * 20 + [2] * 5
        assert [r.epoch for r in rows] == list(range(1, 21)) + list(range(1, 6))

    pa_first_pass = [r for r in pa_rows if r.iteration == 1]
    pa_gain = pa_first_pass[0].val_mse / pa_first_pass[-1].val_mse
    composite_gain = dpd_rows[0].val_mse / dpd_rows[-1].val_mse
    assert pa_gain >= 2.0  # measured: about 19x
    assert composite_gain >= 10.0  # measured: about 300x
    with capsys.disabled():
        print(
            f"PASS 4/7 — 25+25 logged epochs; amplifier-model loss /{pa_gain:.0f},"
            f" composite loss /{composite_gain:.0f}"
        )


def test_5_reproducibility_and_round_trip(capsys, tmp_path):
    """Same seeds, same bytes; modulation round-trips to numerical precision."""
    cfg = OfdmConfig(n_symbols=1, seed=0)
    grid, sig = generate_ofdm(cfg)
    assert evm_percent(grid, demodulate_ofdm(sig, cfg)) < 1e-8

    scale = _frame_scale(cfg)
    n = cfg.dft_size
    grid_power = scale**2 / (cfg.n_symbols * n * n) * np.sum(np.abs(grid.symbols) ** 2)
    mean_power = np.mean(np.abs(sig.samples) ** 2)
    assert abs(mean_power - grid_power) / grid_power < 1e-6

    _, again = generate_ofdm(cfg)
    assert np.array_equal(sig.samples, again.samples)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_signal_csv(sig, str(a))
    write_signal_csv(again, str(b))
    assert a.read_bytes() == b.read_bytes()

    spec = ExperimentSpec(
        waveform=OfdmConfig(seed=1),
        train=TrainConfig(outer_iterations=0, epochs_per_iteration=(), train_symbols=1, val_symbols=1),
        dpd_list=["poly P=3 M=1"],
        fixed_point=Q15,
        output_dir=str(tmp_path / "run"),
    )
    run_sweep(spec)
    first = (tmp_path / "run" / "sweep.csv").read_bytes()
    run_sweep(spec)
    assert (tmp_path / "run" / "sweep.csv").read_bytes() == first
    with capsys.disabled():
        print("PASS 5/7 — bit-exact regeneration, round-trip below 1e-8 %, energy conserved")


def test_6_fixed_point_fidelity(capsys, frames, trained_nets, fitted_polys):
    """16-bit inference tracks float at every headline design point."""
    _, x_val, ref_grid = frames
    worst_err, worst_shift = 0.0, 0.0
    cases = []
    for width in (6, 14):
        cases.append((trained_nets[width][0], "nn"))
    for desc in ("poly P=7 M=1", "poly P=11 M=2"):
        backed_off = rescale_cascade_gain(fitted_polys[desc], 0.95)
        cases.append((backed_off, "poly"))

    for model, kind in cases:
        stats = FixedPointStats()
        if kind == "nn":
            u_float = nn_forward(model, x_val)
            u_fixed = nn_forward_fixed(model, x_val, Q15, stats)
        else:
            u_float = poly_predistort(model, x_val)
            u_fixed = poly_forward_fixed(model, x_val, Q15, stats)
        err = np.abs(u_float.samples - u_fixed.samples).max()
        assert err < 1e-3  # measured: below 1e-4 at every point
        aclr_f, _ = _evaluate(u_float, ref_grid)
        aclr_q, _ = _evaluate(u_fixed, ref_grid)
        shift = abs(aclr_f - aclr_q)
        assert shift < 1.5  # measured: below 0.03 dB at every point
        worst_err = max(worst_err, err)
        worst_shift = max(worst_shift, shift)

    # at low drive the 11th-order branch starves: |x|^10 underflows the grid
    low = IqSignal(x_val.samples * (0.3 / np.abs(x_val.samples).max()), x_val.sample_rate_hz)
    starved = FixedPointStats()
    eleventh = rescale_cascade_gain(fitted_polys["poly P=11 M=2"], 0.95)
    poly_forward_fixed(eleventh, low, Q15, starved)
    assert starved.underflow_pct("p11") > 50.0  # measured: 100 %
    assert starved.underflow_pct("p1") == 0.0

    with capsys.disabled():
        print(
            f"PASS 6/7 — worst sample error {worst_err:.1e}, worst ACLR shift"
            f" {worst_shift:.3f} dB, 11th-order starvation {starved.underflow_pct('p11'):.0f} %"
        )


def test_7_counters_agree_with_formulas(capsys):
    """Instrumented per-multiply counting reproduces the closed forms."""
    rng = np.random.default_rng(77)
    frame = IqSignal(
        0.3 * (rng.standard_normal(64) + 1j * rng.standard_normal(64)), 61.44e6
    )
    for desc in DEFAULT_SWEEP:
        kind, params, _ = parse_descriptor(desc)
        if kind == "poly":
            expected = poly_count(params).n_mults
            model = MemoryPolyModel.identity(params)
            _, per_sample = count_poly_multiplies(model, frame.samples)
        else:
            k, n = params
            expected = nn_count(k, n).n_mults
            _, per_sample = count_nn_multiplies(DenseNet.zeros(k, n), frame.samples)
        assert per_sample == expected
    with capsys.disabled():
        print("PASS 7/7 — instrumented multiply counts equal the closed-form counts")
