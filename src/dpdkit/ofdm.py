"""OFDM waveform generation and demodulation.

The generator builds an oversampled CP-free OFDM frame: random constellation
points on the occupied subcarriers, one inverse DFT per symbol on a grid
zero-padded by the oversampling factor, and a final scaling so the peak
magnitude of the frame is exactly 1.  The scaling is a deterministic function
of the configuration (generation is seeded), which lets the demodulator undo
it without side-band information.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FramingError, _require_integer, _require_real
from .signals import IqSignal


def _square_qam(levels: np.ndarray) -> np.ndarray:
    re, im = np.meshgrid(levels, levels)
    points = (re + 1j * im).ravel()
    return points / np.sqrt(np.mean(np.abs(points) ** 2))


CONSTELLATIONS: dict[str, np.ndarray] = {
    "qpsk": _square_qam(np.array([-1.0, 1.0])),
    "qam16": _square_qam(np.array([-3.0, -1.0, 1.0, 3.0])),
    "qam64": _square_qam(np.array([-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0])),
}


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


@dataclass(frozen=True)
class OfdmConfig:
    """OFDM frame parameters.

    Attributes:
        n_subcarriers: number of occupied subcarriers (DC always unused;
            the occupied set is split floor(n/2) below / ceil(n/2) above DC).
        subcarrier_spacing_hz: subcarrier spacing in Hz.
        n_symbols: number of OFDM symbols in the frame.
        constellation: one of "qpsk", "qam16", "qam64".
        oversampling_factor: DFT zero-padding factor (>= 2).
        seed: RNG seed for the data symbols.
    """

    n_subcarriers: int = 600
    subcarrier_spacing_hz: float = 15_000.0
    n_symbols: int = 1
    constellation: str = "qam16"
    oversampling_factor: int = 4
    seed: int = 0

    def __post_init__(self):
        # a float or string count fails before any frame is built
        for name in ("n_subcarriers", "n_symbols", "oversampling_factor", "seed"):
            _require_integer(name, getattr(self, name))
        _require_real("subcarrier_spacing_hz", self.subcarrier_spacing_hz)
        if self.n_subcarriers < 1:
            raise ConfigurationError(f"n_subcarriers must be >= 1, got {self.n_subcarriers}")
        if not self.subcarrier_spacing_hz > 0:
            raise ConfigurationError(
                f"subcarrier_spacing_hz must be positive, got {self.subcarrier_spacing_hz}",
                "subcarrier_spacing_hz",
            )
        if self.n_symbols < 1:
            raise ConfigurationError(f"n_symbols must be >= 1, got {self.n_symbols}")
        if self.constellation not in CONSTELLATIONS:
            raise ConfigurationError(
                f"unknown constellation {self.constellation!r}; "
                f"expected one of {sorted(CONSTELLATIONS)}"
            )
        if self.oversampling_factor < 2:
            raise ConfigurationError(
                f"oversampling_factor must be >= 2, got {self.oversampling_factor}"
            )

    @property
    def base_dft_size(self) -> int:
        """Smallest power of two holding the occupied subcarriers plus DC."""
        return _next_pow2(self.n_subcarriers + 1)

    @property
    def dft_size(self) -> int:
        """Per-symbol DFT size after zero-padding (= samples per symbol)."""
        return self.oversampling_factor * self.base_dft_size

    @property
    def sample_rate_hz(self) -> float:
        return self.dft_size * self.subcarrier_spacing_hz

    @property
    def occupied_bandwidth_hz(self) -> float:
        return self.n_subcarriers * self.subcarrier_spacing_hz

    @property
    def channel_bandwidth_hz(self) -> float:
        """ACLR channel: the occupied band is 90% of it (LTE's transmission-bandwidth rule)."""
        return self.occupied_bandwidth_hz / 0.9

    @property
    def n_samples(self) -> int:
        return self.n_symbols * self.dft_size


@dataclass(frozen=True)
class SymbolGrid:
    """Frequency-domain constellation points, shape (n_symbols, n_subcarriers).

    Columns are ordered by ascending subcarrier frequency (most negative
    first); the DC bin is not part of the grid.
    """

    symbols: np.ndarray

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=np.complex128)
        if symbols.ndim != 2:
            raise ConfigurationError(f"symbol grid must be 2-D, got shape {symbols.shape}")
        object.__setattr__(self, "symbols", symbols)

    @property
    def shape(self) -> tuple[int, int]:
        return self.symbols.shape


def _bin_indices(cfg: OfdmConfig) -> np.ndarray:
    """FFT bin index for each grid column, ascending frequency, DC skipped."""
    n_below = cfg.n_subcarriers // 2
    n_above = cfg.n_subcarriers - n_below
    nfft = cfg.dft_size
    below = np.arange(nfft - n_below, nfft)  # frequencies -n_below .. -1
    above = np.arange(1, n_above + 1)  # frequencies +1 .. +n_above
    return np.concatenate([below, above])


def _synthesize(cfg: OfdmConfig) -> tuple[np.ndarray, np.ndarray]:
    """Draw the seeded symbol grid and return (grid, unscaled time frame)."""
    rng = np.random.default_rng(cfg.seed)
    points = CONSTELLATIONS[cfg.constellation]
    grid = points[rng.integers(0, points.size, size=(cfg.n_symbols, cfg.n_subcarriers))]
    spectrum = np.zeros((cfg.n_symbols, cfg.dft_size), dtype=np.complex128)
    spectrum[:, _bin_indices(cfg)] = grid
    time = np.fft.ifft(spectrum, axis=1).ravel()
    return grid, time


@functools.lru_cache(maxsize=32)
def _frame_scale(cfg: OfdmConfig) -> float:
    """Scale applied by generate_ofdm: 1 / peak magnitude of the raw frame."""
    _, time = _synthesize(cfg)
    peak = float(np.max(np.abs(time)))
    return 1.0 / peak


def generate_ofdm(cfg: OfdmConfig) -> tuple[SymbolGrid, IqSignal]:
    """Generate a seeded OFDM frame.

    Returns:
        (grid, signal): the transmitted constellation grid and the time-domain
        frame, scaled so that max |x| == 1.
    """
    grid, time = _synthesize(cfg)
    scale = 1.0 / float(np.max(np.abs(time)))
    return SymbolGrid(grid), IqSignal(time * scale, cfg.sample_rate_hz)


def demodulate_ofdm(signal: IqSignal, cfg: OfdmConfig) -> SymbolGrid:
    """Recover the symbol grid from a frame generated with `cfg`.

    Framing (symbol boundaries, DFT size) and the generator's peak scaling are
    derived from `cfg`, so the input must be the generated frame or a
    distortion of it with the same length and rate.  The operation is linear:
    demodulating g*x returns g times the original grid.

    Raises:
        FramingError: if the signal length or sample rate is inconsistent
            with `cfg`.
    """
    expected = cfg.n_samples
    if len(signal) != expected:
        raise FramingError(f"expected {expected} samples for {cfg.n_symbols} symbols, got {len(signal)}")
    if signal.sample_rate_hz != cfg.sample_rate_hz:
        raise FramingError(
            f"sample rate {signal.sample_rate_hz} Hz does not match config rate {cfg.sample_rate_hz} Hz"
        )
    frames = signal.samples.reshape(cfg.n_symbols, cfg.dft_size)
    spectrum = np.fft.fft(frames, axis=1)
    grid = spectrum[:, _bin_indices(cfg)] / _frame_scale(cfg)
    return SymbolGrid(grid)
