"""Tests for the simulated power amplifier and its profile file format."""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpdkit import IqSignal, OfdmConfig, demodulate_ofdm, generate_ofdm
from dpdkit.errors import ConfigurationError, FormatError, InputRangeError
from dpdkit.mempoly import MemoryPolyModel, PolyShape
from dpdkit.metrics import aclr_db_gated, evm_percent
from dpdkit.pa import MAX_DRIVE, SimulatedPa, load_default_pa, load_pa_profile, save_pa_profile
from row_edits import check_row_edits

RATE = 61.44e6


def gain_core(gain, p_max=1, taps=1):
    core = MemoryPolyModel.identity(PolyShape(p_max=p_max, main_taps=taps))
    core.theta[:] = 0
    core.theta[0] = gain
    return core


def random_signal(n, seed, scale=0.25):
    rng = np.random.default_rng(seed)
    x = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return IqSignal(x, RATE)


class TestLinearAndPolynomialCore:
    def test_linear_core_is_exact_gain(self):
        g = 0.8 + 0.3j
        pa = SimulatedPa(core=gain_core(g), saturation_output_limit=10.0, noise_stddev=0.0)
        sig = random_signal(500, seed=1)
        out = pa.apply(sig)
        np.testing.assert_allclose(out.samples, g * sig.samples, rtol=1e-12)

    def test_cubic_matches_per_sample_oracle(self):
        core = MemoryPolyModel.identity(PolyShape(p_max=3, main_taps=1))
        core.branch_taps()[0][0] = 1.0
        core.branch_taps()[1][0] = -0.2 + 0.1j
        pa = SimulatedPa(core=core, saturation_output_limit=10.0, noise_stddev=0.0)
        sig = random_signal(200, seed=2)
        out = pa.apply(sig)
        expect = np.array(
            [s + (-0.2 + 0.1j) * s * abs(s) ** 2 for s in sig.samples]
        )
        np.testing.assert_allclose(out.samples, expect, rtol=1e-12)

    def test_memory_tap_matches_manual_shift(self):
        core = MemoryPolyModel.identity(PolyShape(p_max=1, main_taps=2))
        core.branch_taps()[0][0] = 1.0
        core.branch_taps()[0][1] = 0.5j
        pa = SimulatedPa(core=core, saturation_output_limit=10.0, noise_stddev=0.0)
        sig = random_signal(64, seed=3)
        out = pa.apply(sig)
        x = sig.samples
        expect = x + 0.5j * np.concatenate([[0.0], x[:-1]])
        np.testing.assert_allclose(out.samples, expect, rtol=1e-12)


class TestSaturation:
    def pa_with_limit(self, limit):
        return SimulatedPa(core=gain_core(1.0), saturation_output_limit=limit, noise_stddev=0.0)

    def test_passthrough_below_knee(self):
        pa = self.pa_with_limit(1.0)
        mags = np.linspace(0.01, 0.89, 50)
        sig = IqSignal(mags * np.exp(0.3j), RATE)
        out = pa.apply(sig)
        np.testing.assert_allclose(out.samples, sig.samples, rtol=1e-12)

    def test_output_never_exceeds_limit(self):
        pa = self.pa_with_limit(0.4)
        raw = random_signal(1000, seed=4).samples
        sig = IqSignal(raw * (1.4 / np.abs(raw).max()), RATE)
        out = pa.apply(sig)
        assert np.abs(out.samples).max() <= 0.4 + 1e-12

    def test_radially_monotone_and_continuous(self):
        pa = self.pa_with_limit(1.0)
        mags = np.linspace(0.0, 1.4, 2000)
        out = np.abs(pa.apply(IqSignal(mags + 0j, RATE)).samples)
        steps = np.diff(out)
        assert np.all(steps >= -1e-12)
        assert steps.max() < 2 * (mags[1] - mags[0])

    def test_phase_preserved_through_knee(self):
        pa = self.pa_with_limit(0.5)
        phases = np.linspace(-np.pi, np.pi, 64, endpoint=False)
        sig = IqSignal(1.2 * np.exp(1j * phases), RATE)
        out = pa.apply(sig)
        np.testing.assert_allclose(np.angle(out.samples), phases, atol=1e-12)

    def test_overdrive_rejected(self):
        pa = self.pa_with_limit(1.0)
        # NaN compares false against any limit, so it must be caught explicitly
        for sample in (MAX_DRIVE + 0.01, np.inf, np.nan):
            bad = IqSignal(np.array([0.1, sample]), RATE)
            with pytest.raises(InputRangeError):
                pa.apply(bad)


class TestNoise:
    def make(self, seed=5):
        return SimulatedPa(core=gain_core(1.0), saturation_output_limit=10.0,
                           noise_stddev=1e-3, seed=seed)

    def test_same_seed_same_first_call(self):
        sig = random_signal(256, seed=6)
        out_a = self.make().apply(sig)
        out_b = self.make().apply(sig)
        np.testing.assert_array_equal(out_a.samples, out_b.samples)

    def test_successive_calls_draw_fresh_noise(self):
        sig = random_signal(256, seed=7)
        pa = self.make()
        first = pa.apply(sig)
        second = pa.apply(sig)
        assert np.any(first.samples != second.samples)

    def test_non_finite_or_negative_noise_rejected(self):
        # NaN would fail apply's `> 0` test and switch the noise off unreported
        for noise in (np.nan, np.inf, -1e-3):
            with pytest.raises(ConfigurationError, match="noise_stddev"):
                SimulatedPa(core=gain_core(1.0), saturation_output_limit=10.0, noise_stddev=noise)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", "1"), ("seed", True),
        ("noise_stddev", "0.001"), ("noise_stddev", None),
        ("saturation_output_limit", "2.0"), ("saturation_output_limit", False),
    ])
    def test_wrong_typed_setting_rejected_at_construction(self, field, value):
        # each used to construct and fail later, in apply or in a comparison,
        # with a TypeError that named no field
        with pytest.raises(ConfigurationError, match=field) as info:
            dataclasses.replace(load_default_pa(), **{field: value})
        assert info.value.field == field

    def test_noise_level_scales_with_stddev(self):
        sig = random_signal(4096, seed=9)
        pa = SimulatedPa(core=gain_core(1.0), saturation_output_limit=10.0,
                         noise_stddev=5e-3, seed=1)
        out = pa.apply(sig)
        resid = out.samples - sig.samples
        measured = np.sqrt(np.mean(resid.real**2 + resid.imag**2) / 2)
        assert measured == pytest.approx(5e-3, rel=0.1)


class TestProfileIo:
    def test_round_trip(self, tmp_path):
        core = MemoryPolyModel.identity(PolyShape(p_max=5, main_taps=2))
        core.branch_taps()[1][0] = 0.01 - 0.02j
        core.branch_taps()[2][1] = -3e-4 + 1e-5j
        pa = SimulatedPa(core=core, saturation_output_limit=1.25, noise_stddev=2e-4, seed=11)
        path = tmp_path / "profile.txt"
        save_pa_profile(pa, path)
        back = load_pa_profile(path)
        np.testing.assert_array_equal(back.core.theta, core.theta)
        assert back.saturation_output_limit == 1.25
        assert back.noise_stddev == 2e-4
        assert back.seed == 11

    @given(
        p_max=st.sampled_from([1, 3, 5, 7, 9]),
        taps=st.integers(1, 3),
        coefficients=st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                              min_size=15, max_size=15),
        limit=st.floats(min_value=0.0, exclude_min=True, allow_nan=False),
        noise=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_round_trip_bitwise_over_profiles(self, p_max, taps, coefficients, limit, noise, seed):
        core = MemoryPolyModel.identity(PolyShape(p_max=p_max, main_taps=taps))
        core.theta[:] = coefficients[: core.theta.size]
        pa = SimulatedPa(core=core, saturation_output_limit=limit, noise_stddev=noise, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "profile.txt"
            save_pa_profile(pa, path)
            back = load_pa_profile(path)
        assert back.core.shape == core.shape
        assert back.core.theta.tobytes() == core.theta.tobytes()
        for a, b in ((back.saturation_output_limit, limit), (back.noise_stddev, noise)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert back.seed == seed

    def test_core_beyond_the_main_branch_is_refused_unwritten(self, tmp_path):
        # a profile holds p_max, main_taps and the main-branch rows alone, so the
        # conjugate branch and the dc term would be dropped on the way to the file
        for shape, fields in (
            (PolyShape(3, 1, 1, 1, True), "q_max=1, conj_taps=1, include_dc=True"),
            (PolyShape(5, 2, 3, 1), "q_max=3, conj_taps=1"),
            (PolyShape(1, 1, include_dc=True), "include_dc=True"),
        ):
            pa = SimulatedPa(core=MemoryPolyModel.identity(shape), saturation_output_limit=1.0,
                             noise_stddev=0.0)
            path = tmp_path / "profile.txt"
            with pytest.raises(ConfigurationError, match=f"not its {fields}$"):
                save_pa_profile(pa, path)
            assert not path.exists()

    def test_malformed_coefficient_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        # a non-finite coefficient, a row outside the p_max=1 M=1 shape and a
        # repeated key are each an error at their own line
        for row in ("1,0,oops,0.0", "1,0,nan,0.0", "1,0,0.0,-inf", "1,0,1e400,0.0", "3,0,0.5,0.0",
                    "1,1,0.5,0.0", "seed: 1"):
            path.write_text(
                "p_max: 1\nmain_taps: 1\nsaturation_output_limit: 1.0\n"
                "nominal_gain: 1.0,0.0\nnoise_stddev: 0.0\nseed: 0\n"
                f"{row}\n"
                "1,0,1.0,0.0\n"
            )
            with pytest.raises(FormatError, match=r"bad\.txt:7:"):
                load_pa_profile(path)

    @given(
        p_max=st.sampled_from([1, 3, 5, 7, 9]),
        taps=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_every_row_exactly_once(self, p_max, taps, seed, data):
        core = MemoryPolyModel.identity(PolyShape(p_max=p_max, main_taps=taps))
        rng, n = np.random.default_rng(seed), core.theta.size
        core.theta[:] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        pa = SimulatedPa(core=core, saturation_output_limit=1.25, noise_stddev=2e-4, seed=seed)
        check_row_edits(data, pa, save_pa_profile, load_pa_profile, n_header=5, n_values=2)

    def test_bad_profile_value_names_the_file(self, tmp_path):
        path = tmp_path / "bad_profile.txt"
        save_pa_profile(load_default_pa(), path)
        good = path.read_text()
        for old, new in (
            ("noise_stddev: 0.0013", "noise_stddev: nan"),
            ("noise_stddev: 0.0013", "noise_stddev: inf"),
            ("noise_stddev: 0.0013", "noise_stddev: -0.1"),
            ("saturation_output_limit: 2.0", "saturation_output_limit: nan"),
            ("saturation_output_limit: 2.0", "saturation_output_limit: 0.0"),
            ("p_max: 7", "p_max: 2"),
            ("p_max: 7", "p_max: 4"),
            ("main_taps: 3", "main_taps: 0"),
            ("seed: 0", "seed: -1"),
            ("seed: 0", "seed: 1.5"),
        ):
            path.write_text(good.replace(old, new))
            line = good.splitlines().index(old) + 1
            with pytest.raises(FormatError, match=rf"bad_profile\.txt:{line}:"):
                load_pa_profile(path)

    def test_unclipped_profile_loads(self, tmp_path):
        path = tmp_path / "profile.txt"
        save_pa_profile(load_default_pa(), path)
        path.write_text(path.read_text().replace("limit: 2.0", "limit: inf"))
        assert load_pa_profile(path).saturation_output_limit == np.inf

    def test_profile_with_a_nominal_gain_line_loads_unchanged(self, tmp_path):
        # profiles written before the setting was dropped still carry the line
        path = tmp_path / "profile.txt"
        save_pa_profile(load_default_pa(), path)
        plain = load_pa_profile(path)
        legacy_line = "nominal_gain: 0.97,0.26\n"
        path.write_text(path.read_text().replace("noise_stddev:", legacy_line + "noise_stddev:"))
        legacy = load_pa_profile(path)
        assert legacy.core.theta.tobytes() == plain.core.theta.tobytes()
        assert (legacy.saturation_output_limit, legacy.noise_stddev, legacy.seed) == (
            plain.saturation_output_limit, plain.noise_stddev, plain.seed
        )

    def test_default_profile_fields(self):
        pa = load_default_pa()
        assert pa.core.shape.p_max == 7
        assert pa.core.shape.main_taps == 3
        assert pa.core.theta[0] == 0.97 + 0.26j
        assert pa.saturation_output_limit == 2.0
        assert pa.noise_stddev == pytest.approx(1.3e-3)


class TestDefaultProfileCalibration:
    """Recorded operating point of the checked-in profile on the reference frame."""

    def setup_method(self):
        self.cfg = OfdmConfig(n_subcarriers=600, n_symbols=10,
                              constellation="qam16", seed=1)
        self.grid, self.x = generate_ofdm(self.cfg)
        self.pa = load_default_pa()
        self.y = self.pa.apply(self.x)

    def test_uncorrected_gated_aclr_recorded(self):
        value = aclr_db_gated(self.y, self.cfg)
        assert value == pytest.approx(-30.016206711176, abs=0.05)

    def test_uncorrected_evm_matches_recorded_value(self):
        received = demodulate_ofdm(
            IqSignal(self.y.samples / self.pa.core.theta[0], self.y.sample_rate_hz),
            self.cfg,
        )
        value = evm_percent(self.grid, received)
        assert value == pytest.approx(4.769107936413, abs=0.05)
