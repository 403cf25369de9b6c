"""Tests for the IqSignal container, PAPR, gain estimation and CSV I/O."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpdkit import (
    ConfigurationError,
    IqSignal,
    MetricError,
    estimate_gain,
    papr_db,
    read_signal_csv,
    write_signal_csv,
)


def random_signal(n=256, seed=0, rate=1e6):
    rng = np.random.default_rng(seed)
    return IqSignal(rng.normal(size=n) + 1j * rng.normal(size=n), rate)


class TestIqSignal:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            IqSignal(np.array([], dtype=complex), 1.0)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ConfigurationError):
            IqSignal(np.ones(4, dtype=complex), 0.0)

    def test_rejects_non_finite_rate(self):
        for rate in (np.inf, np.nan):
            with pytest.raises(ConfigurationError, match="sample_rate_hz"):
                IqSignal(np.ones(4, dtype=complex), rate)

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            IqSignal(np.ones((2, 2), dtype=complex), 1.0)

    def test_coerces_to_complex128(self):
        sig = IqSignal(np.array([1.0, 2.0]), 10.0)
        assert sig.samples.dtype == np.complex128
        assert len(sig) == 2


class TestPapr:
    def test_constant_magnitude_is_zero_db(self):
        n = np.arange(64)
        tone = IqSignal(np.exp(2j * np.pi * 0.1 * n), 1.0)
        assert abs(papr_db(tone)) < 1e-12

    def test_matches_brute_force(self):
        sig = random_signal(seed=5)
        p = np.abs(sig.samples) ** 2
        expected = 10 * np.log10(p.max() / p.mean())
        assert papr_db(sig) == pytest.approx(expected, rel=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(MetricError):
            papr_db(IqSignal(np.zeros(8, dtype=complex), 1.0))


class TestEstimateGain:
    def test_recovers_exact_scalar(self):
        x = random_signal(seed=1)
        g = 0.8 - 0.3j
        y = IqSignal(g * x.samples, x.sample_rate_hz)
        assert estimate_gain(x, y) == pytest.approx(g, abs=1e-12)

    def test_matches_normal_equation_oracle(self):
        # independent elementwise evaluation of <x,y>/<x,x>
        x = random_signal(seed=2)
        y = random_signal(seed=3)
        num = sum(complex(a).conjugate() * complex(b) for a, b in zip(x.samples, y.samples))
        den = sum(abs(complex(a)) ** 2 for a in x.samples)
        assert estimate_gain(x, y) == pytest.approx(num / den, rel=1e-12)

    def test_zero_reference_rejected(self):
        z = IqSignal(np.zeros(16, dtype=complex), 1.0)
        with pytest.raises(MetricError):
            estimate_gain(z, random_signal(n=16))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_gain(random_signal(n=8), random_signal(n=9))


class TestSignalCsv:
    def test_round_trip_is_bitwise(self, tmp_path):
        sig = random_signal(seed=11, rate=61.44e6)
        path = str(tmp_path / "sig.csv")
        write_signal_csv(sig, path, metadata={"label": "unit"})
        back, meta = read_signal_csv(path)
        assert np.array_equal(back.samples, sig.samples)
        assert back.sample_rate_hz == sig.sample_rate_hz
        assert meta["label"] == "unit"

    @given(
        samples=st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=40),
        rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_round_trip_is_bitwise_over_samples_and_rates(self, samples, rate):
        sig = IqSignal(np.array(samples, dtype=np.complex128), rate)
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "sig.csv")
            write_signal_csv(sig, path)
            back, meta = read_signal_csv(path)
        assert back.samples.tobytes() == sig.samples.tobytes()
        assert back.sample_rate_hz == sig.sample_rate_hz and meta == {}

    def test_missing_sidecar_rejected(self, tmp_path):
        from dpdkit import FormatError

        path = str(tmp_path / "sig.csv")
        write_signal_csv(random_signal(), path)
        import os

        os.remove(path + ".meta")
        with pytest.raises(FormatError):
            read_signal_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        from dpdkit import FormatError

        path = str(tmp_path / "bad.csv")
        for row in ("4,not-a-number,0", "4,nan,0", "4,0.1,inf"):
            write_signal_csv(random_signal(n=4), path)
            with open(path, "a") as fh:
                fh.write(row + "\n")
            with pytest.raises(FormatError, match=":6"):
                read_signal_csv(path)
        # the sidecar's rate must be positive and finite, or fftfreq divides by zero later
        for rate in ("inf", "nan", "-1", "0.0"):
            write_signal_csv(random_signal(n=4), path)
            with open(path + ".meta", "w") as fh:
                fh.write(f"sample_rate_hz: {rate}\n")
            with pytest.raises(FormatError, match=r"bad\.csv\.meta"):
                read_signal_csv(path)
