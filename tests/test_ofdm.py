"""Tests for OFDM generation/demodulation: round trip, Parseval, determinism."""

import numpy as np
import pytest

from dpdkit import ConfigurationError, FramingError, OfdmConfig, demodulate_ofdm, generate_ofdm, papr_db
from dpdkit.ofdm import CONSTELLATIONS, _frame_scale

# small config keeps per-test cost low while exercising the same code paths
SMALL = OfdmConfig(n_subcarriers=60, n_symbols=3, constellation="qam16", seed=9)


class TestConfig:
    def test_default_numerology(self):
        cfg = OfdmConfig(n_subcarriers=600, n_symbols=1)
        assert cfg.base_dft_size == 1024
        assert cfg.dft_size == 4096
        assert cfg.sample_rate_hz == pytest.approx(61.44e6)
        assert cfg.occupied_bandwidth_hz == pytest.approx(9.0e6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OfdmConfig(n_subcarriers=0)
        with pytest.raises(ConfigurationError):
            OfdmConfig(oversampling_factor=1)
        with pytest.raises(ConfigurationError):
            OfdmConfig(constellation="qam1024")
        with pytest.raises(ConfigurationError):
            OfdmConfig(n_symbols=0)

    def test_negative_seed_rejected_naming_the_field(self):
        # numpy's generator would refuse it later, as a ValueError from inside generate_ofdm
        with pytest.raises(ConfigurationError, match="seed") as err:
            OfdmConfig(seed=-1)
        assert err.value.field == "seed"

    @pytest.mark.parametrize("field, value", [
        ("n_subcarriers", 0), ("n_symbols", 0), ("constellation", "qam8"),
        ("oversampling_factor", 1),
        # frames too large for one numpy array; 10**400 would also overflow the float sample rate
        ("n_subcarriers", 10**30), ("n_subcarriers", 10**400),
        ("oversampling_factor", 2**62), ("n_symbols", 2**47),
    ])
    def test_range_error_names_its_field(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} ") as err:
            OfdmConfig(**{field: value})
        assert err.value.field == field

    def test_frame_size_bound_is_numpys(self):
        # 2**47 symbols of 4096 samples are 2**59 complex128 samples, 2**63 bytes
        limit = 2**59 - 1
        assert OfdmConfig(n_symbols=2**47 - 1).n_samples <= limit
        with pytest.raises(ValueError, match="array is too big"):
            np.empty(limit + 1, dtype=np.complex128)

    def test_constellations_unit_power(self):
        for name, points in CONSTELLATIONS.items():
            assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, rel=1e-12), name


class TestGenerate:
    def test_peak_magnitude_is_one(self):
        _, sig = generate_ofdm(SMALL)
        assert np.max(np.abs(sig.samples)) == pytest.approx(1.0, abs=1e-15)

    def test_frame_length_and_rate(self):
        _, sig = generate_ofdm(SMALL)
        assert len(sig) == SMALL.n_symbols * SMALL.dft_size
        assert sig.sample_rate_hz == SMALL.sample_rate_hz

    def test_grid_points_come_from_constellation(self):
        grid, _ = generate_ofdm(SMALL)
        points = CONSTELLATIONS[SMALL.constellation]
        dist = np.min(np.abs(grid.symbols[..., None] - points[None, None, :]), axis=-1)
        assert np.max(dist) < 1e-12

    def test_deterministic_bitwise(self):
        g1, s1 = generate_ofdm(SMALL)
        g2, s2 = generate_ofdm(SMALL)
        assert np.array_equal(s1.samples, s2.samples)
        assert np.array_equal(g1.symbols, g2.symbols)

    def test_seed_changes_data(self):
        _, s1 = generate_ofdm(SMALL)
        from dataclasses import replace

        _, s2 = generate_ofdm(replace(SMALL, seed=SMALL.seed + 1))
        assert not np.array_equal(s1.samples, s2.samples)

    def test_single_subcarrier_is_pure_tone(self):
        cfg = OfdmConfig(n_subcarriers=1, n_symbols=1, constellation="qpsk", seed=3)
        _, sig = generate_ofdm(cfg)
        mags = np.abs(sig.samples)
        assert np.std(mags) < 1e-12 * np.mean(mags)
        assert abs(papr_db(sig)) < 1e-12

    def test_parseval(self):
        # time-domain mean power == scale^2 / (S*N^2) * total grid power
        grid, sig = generate_ofdm(SMALL)
        s = _frame_scale(SMALL)
        n = SMALL.dft_size
        expected = s**2 / (SMALL.n_symbols * n * n) * np.sum(np.abs(grid.symbols) ** 2)
        measured = np.mean(np.abs(sig.samples) ** 2)
        assert abs(measured - expected) / expected < 1e-9

    def test_papr_regression_default_frame(self):
        # frozen from a brute-force max/mean evaluation of this exact frame
        cfg = OfdmConfig(n_subcarriers=600, n_symbols=10, constellation="qam16", seed=7)
        _, sig = generate_ofdm(cfg)
        assert papr_db(sig) == pytest.approx(9.745398321546075, abs=1e-9)
        assert 8.0 < papr_db(sig) < 12.0


class TestDemodulate:
    def test_round_trip_recovers_grid(self):
        grid, sig = generate_ofdm(SMALL)
        rec = demodulate_ofdm(sig, SMALL)
        err = np.linalg.norm(rec.symbols - grid.symbols) / np.linalg.norm(grid.symbols)
        assert err < 1e-9

    def test_linearity_under_complex_scale(self):
        grid, sig = generate_ofdm(SMALL)
        g = 0.7 + 0.2j
        from dpdkit import IqSignal

        rec = demodulate_ofdm(IqSignal(g * sig.samples, sig.sample_rate_hz), SMALL)
        assert np.allclose(rec.symbols, g * grid.symbols, rtol=1e-9, atol=1e-12)

    def test_wrong_length_rejected(self):
        from dpdkit import IqSignal

        _, sig = generate_ofdm(SMALL)
        short = IqSignal(sig.samples[:-1], sig.sample_rate_hz)
        with pytest.raises(FramingError):
            demodulate_ofdm(short, SMALL)

    def test_wrong_rate_rejected(self):
        from dpdkit import IqSignal

        _, sig = generate_ofdm(SMALL)
        with pytest.raises(FramingError):
            demodulate_ofdm(IqSignal(sig.samples, 2 * sig.sample_rate_hz), SMALL)

    def test_odd_subcarrier_count_round_trips(self):
        cfg = OfdmConfig(n_subcarriers=5, n_symbols=2, constellation="qpsk", seed=1)
        grid, sig = generate_ofdm(cfg)
        rec = demodulate_ofdm(sig, cfg)
        assert np.allclose(rec.symbols, grid.symbols, rtol=1e-9, atol=1e-12)
