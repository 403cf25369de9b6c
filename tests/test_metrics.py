"""Tests for PSD, ACLR, and EVM measurements."""

import dataclasses

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dpdkit import IqSignal, OfdmConfig, demodulate_ofdm, generate_ofdm
from dpdkit.errors import ConfigurationError, FramingError, MetricError
from dpdkit.metrics import (
    _welch, _welch_linear, aclr_db_gated, default_segment_len, evm_percent, psd_welch
)

RATE = 61.44e6


def _scipy_welch(x, fs, nperseg, noverlap):
    return scipy.signal.welch(x, fs, window="hann", nperseg=nperseg, noverlap=noverlap,
                              detrend=False, return_onesided=False, scaling="density")


def _assert_same_bytes(x, fs, nperseg, noverlap):
    f_ref, p_ref = _scipy_welch(x, fs, nperseg, noverlap)
    f, p = _welch(x, fs, nperseg, noverlap)
    assert f.dtype == f_ref.dtype and p.dtype == p_ref.dtype
    assert f.tobytes() == f_ref.tobytes()
    assert p.tobytes() == p_ref.tobytes()


class TestWelchOracle:
    """_welch must reproduce scipy.signal.welch byte for byte."""

    @pytest.mark.parametrize("overlap", [0, 0.5, 0.75])
    @pytest.mark.parametrize("nperseg", [2, 64, 256, 512, 1024])
    @pytest.mark.parametrize("n", [None, 4096, 5000, 40960])
    def test_bitwise_over_grid(self, n, nperseg, overlap):
        n = nperseg if n is None else n
        rng = np.random.default_rng(n + nperseg)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        _assert_same_bytes(x, RATE, nperseg, int(nperseg * overlap))
        # a (rows, n) batch: each row's estimate has its 1-D call's bytes and scipy's
        rows = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        f, p = _welch(rows, RATE, nperseg, int(nperseg * overlap))
        assert p.shape == (3, nperseg) and p.flags.c_contiguous
        for row, got in zip(rows, p):
            f_row, p_row = _welch(row, RATE, nperseg, int(nperseg * overlap))
            assert f.tobytes() == f_row.tobytes()
            assert got.tobytes() == p_row.tobytes()
            _assert_same_bytes(row, RATE, nperseg, int(nperseg * overlap))

    @settings(max_examples=60, deadline=None)
    @given(
        x=hnp.arrays(np.complex128, st.integers(2, 600),
                     elements=st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                                 allow_infinity=False)),
        log2_nperseg=st.integers(1, 9),
        overlap=st.sampled_from([0, 0.25, 0.5, 0.75]),
        fs=st.floats(1.0, 1e9),
    )
    def test_bitwise_on_any_finite_signal(self, x, log2_nperseg, overlap, fs):
        nperseg = min(1 << log2_nperseg, 1 << (len(x).bit_length() - 1))
        _assert_same_bytes(x, fs, nperseg, int(nperseg * overlap))


def _aclr_from_psd(signal, waveform):
    """ACLR integrated from psd_welch over the whole record, with aclr_db_gated's bands."""
    est = psd_welch(signal)
    power = 10 ** (est.power_db / 10)
    f = np.abs(est.freqs_hz)
    bw = waveform.channel_bandwidth_hz
    in_channel = f <= bw / 2
    return 10 * np.log10(power[(f <= 2 * bw) & ~in_channel].sum() / power[in_channel].sum())


class TestPsd:
    def test_tone_peaks_at_tone_frequency(self):
        n = 1 << 14
        f0 = 3.6e6
        t = np.arange(n) / RATE
        sig = IqSignal(np.exp(2j * np.pi * f0 * t), RATE)
        est = psd_welch(sig)
        peak_freq = est.freqs_hz[np.argmax(est.power_db)]
        df = est.freqs_hz[1] - est.freqs_hz[0]
        assert abs(peak_freq - f0) <= df

    def test_white_noise_is_flat(self):
        rng = np.random.default_rng(12)
        n = 1 << 17
        sig = IqSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), RATE)
        _, psd = _welch_linear(sig.samples, sig.sample_rate_hz)
        spread_db = 10 * np.log10(psd.max() / psd.min())
        assert spread_db < 3.0

    def test_ofdm_plateau_width_matches_occupied_bandwidth(self):
        cfg = OfdmConfig(n_subcarriers=600, n_symbols=10, constellation="qam16", seed=1)
        _, x = generate_ofdm(cfg)
        est = psd_welch(x)
        above = est.freqs_hz[est.power_db > -3.0]
        span = above.max() - above.min()
        df = est.freqs_hz[1] - est.freqs_hz[0]
        assert abs(span - cfg.occupied_bandwidth_hz) <= 2 * df

    def test_integrated_density_recovers_mean_power(self):
        rng = np.random.default_rng(14)
        sig = IqSignal(rng.standard_normal(8192) + 1j * rng.standard_normal(8192), RATE)
        freqs, psd = _welch_linear(sig.samples, sig.sample_rate_hz)
        integrated = np.sum(psd) * (freqs[1] - freqs[0])
        assert integrated == pytest.approx(sig.mean_power(), rel=1e-9)

    def test_peak_normalization_tops_at_zero_db(self):
        rng = np.random.default_rng(15)
        sig = IqSignal(rng.standard_normal(4096) + 1j * rng.standard_normal(4096), RATE)
        est = psd_welch(sig)
        assert est.power_db.max() == pytest.approx(0.0, abs=1e-12)

    def test_segment_follows_the_signal_length(self):
        # a one-symbol frame of a 100-subcarrier waveform is 512 samples long
        cfg = OfdmConfig(n_subcarriers=100)
        _, x = generate_ofdm(cfg)
        assert len(x) == 512
        est = psd_welch(x)
        assert est.freqs_hz.size == 512
        assert est.freqs_hz[1] - est.freqs_hz[0] == cfg.subcarrier_spacing_hz
        assert psd_welch(IqSignal(np.tile(x.samples, 4), x.sample_rate_hz)).freqs_hz.size == 1024

    def test_all_zero_signal_rejected_for_peak_mode(self):
        sig = IqSignal(np.zeros(2048, dtype=complex), RATE)
        with pytest.raises(MetricError):
            psd_welch(sig)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_sample_rejected(self, bad):
        samples = np.ones(2048, dtype=complex)
        samples[700] = bad
        with pytest.raises(MetricError, match="non-finite"):
            psd_welch(IqSignal(samples, RATE))


class TestAclr:
    def test_scale_invariant(self):
        cfg = OfdmConfig(n_subcarriers=600, n_symbols=2, seed=5)
        _, x = generate_ofdm(cfg)
        a = aclr_db_gated(x, cfg)
        b = aclr_db_gated(IqSignal(3.7 * x.samples, x.sample_rate_hz), cfg)
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_symbol_frame_leakage_is_window_limited(self):
        cfg = OfdmConfig(n_subcarriers=600, n_symbols=1, constellation="qam16", seed=0)
        _, x = generate_ofdm(cfg)
        assert aclr_db_gated(x, cfg) < -50.0

    def test_rate_must_match_waveform(self):
        cfg = OfdmConfig(n_symbols=2, seed=5)
        _, x = generate_ofdm(cfg)
        for rate in (x.sample_rate_hz / 2, 8e6):
            with pytest.raises(FramingError, match="sample rate"):
                aclr_db_gated(IqSignal(x.samples, rate), cfg)

    def test_channel_follows_the_waveform(self):
        # the occupied band is 90% of the channel: 600 x 15 kHz gives 10 MHz exactly
        assert OfdmConfig().channel_bandwidth_hz == 10e6
        assert OfdmConfig(subcarrier_spacing_hz=30e3).channel_bandwidth_hz == 20e6
        # the spectrum scales with the spacing, so the ACLR does not move
        values = []
        for spacing in (15e3, 30e3, 60e3):
            cfg = OfdmConfig(n_symbols=2, subcarrier_spacing_hz=spacing, seed=5)
            _, x = generate_ofdm(cfg)
            y = x.samples * (1 - 0.05 * np.abs(x.samples) ** 2)
            values.append(aclr_db_gated(IqSignal(y, x.sample_rate_hz), cfg))
        assert values == pytest.approx([values[0]] * 3, abs=1e-9)
        assert values[0] < -20.0

    def test_zero_power_rejected(self):
        cfg = OfdmConfig(n_symbols=2)
        sig = IqSignal(np.zeros(cfg.n_samples, dtype=complex), cfg.sample_rate_hz)
        with pytest.raises(MetricError):
            aclr_db_gated(sig, cfg)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(np.nan, 0)])
    def test_non_finite_sample_rejected(self, bad):
        cfg = OfdmConfig(n_subcarriers=600, n_symbols=2, seed=5)
        _, x = generate_ofdm(cfg)
        samples = x.samples.copy()
        samples[-1] = bad  # the last block only: the check covers the whole record
        sig = IqSignal(samples, x.sample_rate_hz)
        with pytest.raises(MetricError, match="non-finite"):
            aclr_db_gated(sig, cfg)


def loop_aclr_db_gated(signal, waveform):
    """aclr_db_gated as one Welch estimate per symbol, the way it was first written.

    scipy's welch stands in for the per-symbol _welch call, whose bytes the
    oracle above holds to scipy's.
    """
    bw = waveform.channel_bandwidth_hz
    p_channel = 0.0
    p_adjacent = 0.0
    for block in signal.samples.reshape(-1, waveform.dft_size):
        segment_len = default_segment_len(len(block))
        freqs, psd = _scipy_welch(block, signal.sample_rate_hz, segment_len, segment_len // 2)
        freqs = np.fft.fftshift(freqs)
        psd = np.fft.fftshift(psd)
        total = float(np.sum(psd) * (signal.sample_rate_hz / segment_len))
        mean_power = IqSignal(block, signal.sample_rate_hz).mean_power()
        if total > 0:
            psd = psd * (mean_power / total)
        measured = np.abs(freqs) <= 2.0 * bw
        in_channel = np.abs(freqs) <= bw / 2.0
        p_channel += float(np.sum(psd[in_channel]))
        p_adjacent += float(np.sum(psd[measured & ~in_channel]))
    return float(10.0 * np.log10(p_adjacent / p_channel))


class TestGatedAclr:
    @pytest.mark.parametrize("n_symbols", [1, 2, 10, 20])
    @pytest.mark.parametrize("waveform", [{}, {"n_subcarriers": 300, "oversampling_factor": 3}],
                             ids=["default", "300x3"])
    def test_one_batched_estimate_has_the_per_symbol_bits(self, waveform, n_symbols):
        cfg = OfdmConfig(n_symbols=n_symbols, seed=n_symbols, **waveform)
        _, x = generate_ofdm(cfg)
        y = IqSignal(x.samples * (1 - 0.05 * np.abs(x.samples) ** 2), x.sample_rate_hz)
        got = aclr_db_gated(y, cfg)
        assert np.float64(got).tobytes() == np.float64(loop_aclr_db_gated(y, cfg)).tobytes()


    def test_gated_removes_block_boundary_splatter(self):
        cfg = OfdmConfig(n_subcarriers=600, n_symbols=10, constellation="qam16", seed=1)
        _, x = generate_ofdm(cfg)
        whole = _aclr_from_psd(x, cfg)
        gated = aclr_db_gated(x, cfg)
        assert gated < -50.0
        assert whole > -40.0

    def test_single_block_equals_plain_measurement(self):
        cfg = OfdmConfig(n_subcarriers=600, n_symbols=1, constellation="qam16", seed=2)
        _, x = generate_ofdm(cfg)
        assert aclr_db_gated(x, cfg) == pytest.approx(_aclr_from_psd(x, cfg), abs=1e-12)

    def test_partial_block_rejected(self):
        cfg = OfdmConfig(n_subcarriers=600, n_symbols=2, seed=3)
        _, x = generate_ofdm(cfg)
        partial = IqSignal(x.samples[: cfg.dft_size + 1], x.sample_rate_hz)
        with pytest.raises(FramingError, match="whole number"):
            aclr_db_gated(partial, cfg)


class TestEvm:
    def setup_method(self):
        self.cfg = OfdmConfig(n_subcarriers=300, n_symbols=4, constellation="qam16", seed=21)
        self.grid, self.x = generate_ofdm(self.cfg)

    def test_identity_channel_is_zero(self):
        received = demodulate_ofdm(self.x, self.cfg)
        assert evm_percent(self.grid, received) < 1e-10

    def test_invariant_to_complex_gain(self):
        g = 2.0 - 0.7j
        received = demodulate_ofdm(
            IqSignal(g * self.x.samples, self.x.sample_rate_hz), self.cfg
        )
        assert evm_percent(self.grid, received) < 1e-9

    def test_cubic_distortion_matches_independent_dft_oracle(self):
        c3 = -0.08 + 0.04j
        y = self.x.samples * (1.0 + c3 * np.abs(self.x.samples) ** 2)
        received = demodulate_ofdm(IqSignal(y, self.x.sample_rate_hz), self.cfg)
        value = evm_percent(self.grid, received)

        # independent demodulation path: fftshifted spectrum, centered bins
        nfft = self.cfg.dft_size
        n_below = self.cfg.n_subcarriers // 2
        n_above = self.cfg.n_subcarriers - n_below
        spec_clean = np.fft.fftshift(np.fft.fft(self.x.samples.reshape(-1, nfft), axis=1), axes=1)
        spec_dist = np.fft.fftshift(np.fft.fft(y.reshape(-1, nfft), axis=1), axes=1)
        take = np.r_[nfft // 2 - n_below : nfft // 2, nfft // 2 + 1 : nfft // 2 + 1 + n_above]
        ref = self.grid.symbols.ravel()
        # derive the generator's scale from the clean frame itself
        scale = np.mean(spec_clean[:, take].ravel() / ref)
        recv = spec_dist[:, take].ravel() / scale
        g = np.vdot(ref, recv) / np.vdot(ref, ref)
        oracle = 100.0 * np.linalg.norm(recv - g * ref) / np.linalg.norm(g * ref)

        assert value == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["reference", "received"])
    def test_non_finite_symbol_rejected(self, which, bad):
        grids = {"reference": self.grid, "received": demodulate_ofdm(self.x, self.cfg)}
        symbols = grids[which].symbols.copy()
        symbols[2, 17] = bad
        grids[which] = dataclasses.replace(grids[which], symbols=symbols)
        with pytest.raises(MetricError, match=f"{which} grid holds non-finite symbols"):
            evm_percent(grids["reference"], grids["received"])

    def test_mismatched_grids_rejected(self):
        other = OfdmConfig(n_subcarriers=120, n_symbols=4, seed=21)
        grid_b, _ = generate_ofdm(other)
        with pytest.raises(ConfigurationError):
            evm_percent(self.grid, grid_b)
