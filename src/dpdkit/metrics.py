"""Spectral and constellation metrics: Welch PSD, ACLR, EVM.

ACLR follows the adjacent-leakage convention 10*log10(P_adjacent / P_channel)
with the channel integrated over [-bw/2, +bw/2] and the adjacent power taken
as everything else inside a measured band spanning four channel bandwidths
(clipped to the sampled band).  More negative is better.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import ConfigurationError, MetricError
from .ofdm import SymbolGrid
from .signals import IqSignal


@dataclass(frozen=True)
class PsdEstimate:
    """A power spectral density on an ascending frequency grid.

    power_db is peak-normalized (0 dB at the strongest bin) unless the
    estimate was requested with normalize="none".
    """

    freqs_hz: np.ndarray
    power_db: np.ndarray


def _welch(x: np.ndarray, fs: float, nperseg: int, noverlap: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided Welch density with a periodic Hann window, mean over segments.

    The arithmetic is scipy.signal.welch's (scipy 1.17, detrend=False,
    scaling="density") operation for operation, so the bytes match it: the
    window's scale uses Python's sequential sum, and the periodograms are the
    columns of an (nperseg, p) array so the mean reduces along the same
    contiguous axis.
    """
    t = 1 / fs
    # scipy adds 0.5*cos(0*phi) == 0.5 to zeros, then 0.5*cos(phi): the same bits
    w = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)))[:-1]
    w = w * (1 / np.sqrt(sum(w**2) / t))
    hop = nperseg - noverlap
    p = (len(x) - noverlap) // hop
    spec = np.empty((nperseg, p), dtype=complex)
    for k in range(p):
        spec[:, k] = scipy.fft.fft(x[k * hop : k * hop + nperseg] * w)
    psd = (spec.real**2 + spec.imag**2).mean(axis=-1)
    return scipy.fft.fftfreq(nperseg, t), psd


def _welch_linear(signal: IqSignal, segment_len: int, overlap: float) -> tuple[np.ndarray, np.ndarray]:
    """Averaged Hann-window periodogram, fftshifted, Parseval-renormalized.

    The raw Welch estimate integrates to a window-weighted mean power; the
    final scaling pins the integral to the exact time-domain mean power so
    downstream absolute-power reasoning is bias-free.
    """
    n = len(signal)
    if segment_len < 2 or segment_len & (segment_len - 1):
        raise ConfigurationError(f"segment_len must be a power of two >= 2, got {segment_len}")
    if segment_len > n:
        raise ConfigurationError(f"segment_len {segment_len} exceeds signal length {n}")
    if not 0 <= overlap < 1:
        raise ConfigurationError(f"overlap must be in [0, 1), got {overlap}")
    freqs, psd = _welch(signal.samples, signal.sample_rate_hz, segment_len,
                        int(segment_len * overlap))
    freqs = np.fft.fftshift(freqs)
    psd = np.fft.fftshift(psd)
    df = signal.sample_rate_hz / segment_len
    total = float(np.sum(psd) * df)
    mean_power = signal.mean_power()
    if total > 0:
        psd = psd * (mean_power / total)
    return freqs, psd


def _require_finite(signal: IqSignal) -> None:
    """Reject NaN/inf samples, which would turn every bin and the ACLR into nan."""
    if not np.isfinite(signal.samples).all():
        raise MetricError("signal holds non-finite samples; the PSD is undefined")


def default_segment_len(n_samples: int) -> int:
    """Largest power of two <= n_samples, capped at 1024."""
    if n_samples < 2:
        raise ConfigurationError("need at least 2 samples for a PSD")
    return min(1024, 1 << (int(n_samples).bit_length() - 1))


def psd_welch(
    signal: IqSignal,
    segment_len: int = 1024,
    overlap: float = 0.5,
    normalize: str = "peak",
) -> PsdEstimate:
    """Welch PSD of a complex baseband signal.

    Args:
        signal: input signal.
        segment_len: power-of-two segment length (<= signal length).
        overlap: fractional segment overlap in [0, 1).
        normalize: "peak" (default) references the strongest bin to 0 dB;
            "none" keeps absolute density in dB.

    Raises:
        MetricError: for a signal with NaN/inf samples, or an all-zero signal
            under peak normalization.
    """
    if normalize not in ("peak", "none"):
        raise ConfigurationError(f"normalize must be 'peak' or 'none', got {normalize!r}")
    _require_finite(signal)
    freqs, psd = _welch_linear(signal, segment_len, overlap)
    peak = float(np.max(psd))
    if normalize == "peak":
        if peak <= 0:
            raise MetricError("PSD peak normalization is undefined for an all-zero signal")
        ref = psd / peak
    else:
        ref = psd
    with np.errstate(divide="ignore"):
        power_db = 10.0 * np.log10(ref)
    return PsdEstimate(freqs_hz=freqs, power_db=power_db)


def aclr_db(
    signal: IqSignal,
    channel_bw_hz: float = 10e6,
    segment_len: int | None = None,
    overlap: float = 0.5,
) -> float:
    """Adjacent-channel leakage ratio in dB (negative: leakage below carrier).

    The channel occupies [-bw/2, +bw/2]; adjacent power is integrated over
    the rest of a 4x-bandwidth measured band (clipped to the sampled band).

    Raises:
        ConfigurationError: if the sample rate does not exceed the channel
            bandwidth.
        MetricError: if the signal holds NaN/inf samples or the channel
            power is zero.
    """
    return aclr_db_gated(signal, len(signal), channel_bw_hz, segment_len, overlap)


def aclr_db_gated(
    signal: IqSignal,
    block_len: int,
    channel_bw_hz: float = 10e6,
    segment_len: int | None = None,
    overlap: float = 0.5,
) -> float:
    """ACLR measured per block of ``block_len`` samples, powers pooled.

    Concatenating modulation blocks back to back creates boundary
    discontinuities whose splatter dominates a whole-record measurement and
    hides in-block leakage. Estimating the spectrum one block at a time and
    pooling channel/adjacent powers across blocks removes the boundary
    artifact; this is the measurement the experiment harness reports.

    Raises:
        ConfigurationError: if the record is not a whole number of blocks
            or the sample rate does not exceed the channel bandwidth.
        MetricError: if the signal holds NaN/inf samples or the pooled
            channel power is zero.
    """
    if block_len <= 0 or len(signal) % block_len != 0:
        raise ConfigurationError(
            f"record length {len(signal)} is not a multiple of block length {block_len}"
        )
    if not signal.sample_rate_hz > channel_bw_hz:
        raise ConfigurationError(
            f"sample rate {signal.sample_rate_hz} Hz must exceed channel bandwidth {channel_bw_hz} Hz"
        )
    _require_finite(signal)
    if segment_len is None:
        segment_len = default_segment_len(block_len)
    half = channel_bw_hz / 2.0
    p_channel = 0.0
    p_adjacent = 0.0
    for block in signal.samples.reshape(-1, block_len):
        freqs, psd = _welch_linear(IqSignal(block, signal.sample_rate_hz), segment_len, overlap)
        measured = np.abs(freqs) <= 2.0 * channel_bw_hz
        in_channel = np.abs(freqs) <= half
        p_channel += float(np.sum(psd[in_channel]))
        p_adjacent += float(np.sum(psd[measured & ~in_channel]))
    if p_channel <= 0:
        raise MetricError("channel power is zero; ACLR undefined")
    return float(10.0 * np.log10(p_adjacent / p_channel))


def evm_percent(reference: SymbolGrid, received: SymbolGrid) -> float:
    """Error vector magnitude, 100 * ||received - reference|| / ||reference||.

    A single complex scalar gain is fitted to the received grid and removed
    first.

    Raises:
        ConfigurationError: on shape mismatch.
        MetricError: for a zero-power reference or a zero fitted gain.
    """
    if reference.shape != received.shape:
        raise ConfigurationError(
            f"grid shapes differ: reference {reference.shape}, received {received.shape}"
        )
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
