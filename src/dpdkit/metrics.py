"""Spectral and constellation metrics: Welch PSD, ACLR, EVM.

ACLR follows the adjacent-leakage convention 10*log10(P_adjacent / P_channel)
with the channel integrated over [-bw/2, +bw/2] and the adjacent power taken
as everything else inside a measured band spanning four channel bandwidths
(clipped to the sampled band).  More negative is better.  The waveform sets
every setting: the channel bandwidth, the block length and the Welch segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FramingError, MetricError
from .ofdm import OfdmConfig, SymbolGrid
from .signals import IqSignal, _require_finite


@dataclass(frozen=True)
class PsdEstimate:
    """A power spectral density on an ascending frequency grid, 0 dB at the strongest bin."""

    freqs_hz: np.ndarray
    power_db: np.ndarray


def _welch(x: np.ndarray, fs: float, nperseg: int, noverlap: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided Welch density with a periodic Hann window, mean over segments.

    ``x`` may carry leading batch axes; each row along the last axis gets its
    own estimate, with the bits of a 1-D call on that row. Every segment of
    every row is gathered by one index array and transformed by one FFT call.
    The arithmetic is scipy.signal.welch's (scipy 1.17, detrend=False,
    scaling="density") operation for operation, so the bytes match it: the
    window's scale uses Python's sequential sum, and the periodograms are the
    columns of a C-ordered (..., nperseg, p) array so the mean reduces along
    the same contiguous axis. The FFT is numpy.fft, which runs the same
    pocketfft as scipy.fft, so metrics never imports scipy.
    """
    t = 1 / fs
    # scipy adds 0.5*cos(0*phi) == 0.5 to zeros, then 0.5*cos(phi): the same bits
    w = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)))[:-1]
    w = w * (1 / np.sqrt(sum(w**2) / t))
    hop = nperseg - noverlap
    p = (x.shape[-1] - noverlap) // hop
    segments = x[..., hop * np.arange(p)[:, None] + np.arange(nperseg)]
    segments *= w
    spec = np.empty(x.shape[:-1] + (nperseg, p), dtype=complex)
    np.fft.fft(segments, out=np.swapaxes(spec, -1, -2))
    del segments  # freed before the periodograms' temporaries are made
    psd = (spec.real**2 + spec.imag**2).mean(axis=-1)
    return np.fft.fftfreq(nperseg, t), psd


def default_segment_len(n_samples: int) -> int:
    """Largest power of two <= n_samples, capped at 1024."""
    if n_samples < 2:
        raise ConfigurationError("need at least 2 samples for a PSD")
    return min(1024, 1 << (int(n_samples).bit_length() - 1))


def _welch_linear(samples: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Averaged Hann-window periodogram, fftshifted, Parseval-renormalized.

    ``samples`` is one signal, or a (rows, n) array of signals that share
    one _welch call and get one estimate row each. Segments are
    default_segment_len(n) samples with half a segment of overlap. The raw
    Welch estimate integrates to a window-weighted mean power; the final
    scaling pins each row's integral to the exact time-domain mean power of
    its signal so downstream absolute-power reasoning is bias-free. Each
    row is summed and scaled by 1-D calls, as a lone signal would be: a
    2-D sum rounds some rows differently.
    """
    segment_len = default_segment_len(samples.shape[-1])
    freqs, psd = _welch(samples, fs, segment_len, segment_len // 2)
    freqs = np.fft.fftshift(freqs)
    psd = np.fft.fftshift(psd, axes=-1)
    df = fs / segment_len
    for row, x in zip(psd.reshape(-1, segment_len), samples.reshape(-1, samples.shape[-1])):
        total = float(np.sum(row) * df)
        if total > 0:
            row *= IqSignal(x, fs).mean_power() / total
    return freqs, psd


def psd_welch(signal: IqSignal) -> PsdEstimate:
    """Welch PSD of a complex baseband signal, peak-normalized to 0 dB.

    Raises:
        MetricError: for a signal with NaN/inf samples or an all-zero signal.
    """
    _require_finite(signal, MetricError)
    freqs, psd = _welch_linear(signal.samples, signal.sample_rate_hz)
    peak = float(np.max(psd))
    if peak <= 0:
        raise MetricError("PSD peak normalization is undefined for an all-zero signal")
    with np.errstate(divide="ignore"):
        power_db = 10.0 * np.log10(psd / peak)
    return PsdEstimate(freqs_hz=freqs, power_db=power_db)


def aclr_db_gated(signal: IqSignal, waveform: OfdmConfig) -> float:
    """ACLR in dB measured one OFDM symbol at a time, powers pooled.

    Concatenating modulation blocks back to back creates boundary
    discontinuities whose splatter dominates a whole-record measurement and
    hides in-block leakage. Estimating the spectrum one symbol
    (``waveform.dft_size`` samples) at a time and pooling channel/adjacent
    powers across symbols removes the boundary artifact. Every symbol's
    estimate comes from one _welch_linear call; the powers are pooled in
    symbol order. The channel is ``waveform.channel_bandwidth_hz``.

    Raises:
        FramingError: if the signal's rate is not the waveform's or its
            length is not a whole number of symbols.
        MetricError: if the signal holds NaN/inf samples or the pooled
            channel power is zero.
    """
    if signal.sample_rate_hz != waveform.sample_rate_hz:
        raise FramingError(
            f"sample rate {signal.sample_rate_hz} Hz does not match the waveform's "
            f"{waveform.sample_rate_hz} Hz"
        )
    if len(signal) % waveform.dft_size:
        raise FramingError(
            f"record length {len(signal)} is not a whole number of {waveform.dft_size}-sample symbols"
        )
    _require_finite(signal, MetricError)
    bw = waveform.channel_bandwidth_hz
    freqs, psd = _welch_linear(signal.samples.reshape(-1, waveform.dft_size),
                               signal.sample_rate_hz)
    in_channel = np.abs(freqs) <= bw / 2.0
    adjacent = (np.abs(freqs) <= 2.0 * bw) & ~in_channel
    p_channel = 0.0
    p_adjacent = 0.0
    for row in psd:
        p_channel += float(np.sum(row[in_channel]))
        p_adjacent += float(np.sum(row[adjacent]))
    if p_channel <= 0:
        raise MetricError("channel power is zero; ACLR undefined")
    return float(10.0 * np.log10(p_adjacent / p_channel))


def evm_percent(reference: SymbolGrid, received: SymbolGrid) -> float:
    """Error vector magnitude, 100 * ||received - reference|| / ||reference||.

    A single complex scalar gain is fitted to the received grid and removed
    first.

    Raises:
        ConfigurationError: on shape mismatch.
        MetricError: for a grid with NaN/inf symbols, a zero-power reference
            or a zero fitted gain.
    """
    if reference.shape != received.shape:
        raise ConfigurationError(
            f"grid shapes differ: reference {reference.shape}, received {received.shape}"
        )
    for name, grid in (("reference", reference), ("received", received)):
        if not np.isfinite(grid.symbols).all():
            raise MetricError(f"{name} grid holds non-finite symbols")
    s = reference.symbols.ravel()
    r = received.symbols.ravel()
    denom = np.vdot(s, s)
    if denom == 0:
        raise MetricError("EVM is undefined for a zero-power reference")
    g = np.vdot(s, r) / denom
    if g == 0:
        raise MetricError("fitted gain is zero; EVM undefined")
    r = r / g
    return float(100.0 * np.linalg.norm(r - s) / np.linalg.norm(s))
