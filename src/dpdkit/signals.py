"""Complex baseband signal container and basic signal utilities."""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DpdError, FormatError, MetricError


@dataclass(frozen=True)
class IqSignal:
    """A uniformly sampled complex baseband signal.

    Attributes:
        samples: 1-D complex array of IQ samples.
        sample_rate_hz: positive, finite sample rate in Hz.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise ConfigurationError(f"samples must be 1-D, got shape {samples.shape}")
        if samples.size == 0:
            raise ConfigurationError("signal must contain at least one sample")
        if not 0 < self.sample_rate_hz < math.inf:
            raise ConfigurationError(
                f"sample_rate_hz must be positive and finite, got {self.sample_rate_hz}"
            )
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    def __len__(self) -> int:
        return self.samples.size

    def mean_power(self) -> float:
        return float(np.mean(np.abs(self.samples) ** 2))


def _require_finite(signal: IqSignal, error: type[DpdError]) -> None:
    """Raise ``error`` if any sample is NaN/inf, which would pass through every stage as nan."""
    if not np.isfinite(signal.samples).all():
        raise error("signal holds non-finite samples")


def papr_db(signal: IqSignal) -> float:
    """Peak-to-average power ratio, 10*log10(max|x|^2 / mean|x|^2).

    Raises:
        MetricError: if the signal is identically zero.
    """
    power = np.abs(signal.samples) ** 2
    mean = power.mean()
    if mean == 0.0:
        raise MetricError("PAPR is undefined for an all-zero signal")
    return float(10.0 * np.log10(power.max() / mean))


def estimate_gain(reference: IqSignal, measured: IqSignal) -> complex:
    """Least-squares complex scalar gain g minimizing ||measured - g*reference||.

    Closed form g = <reference, measured> / <reference, reference>.

    Raises:
        ConfigurationError: if the two signals have different lengths.
        MetricError: if the reference has zero power.
    """
    x = reference.samples
    y = measured.samples
    if x.size != y.size:
        raise ConfigurationError(f"length mismatch: reference {x.size}, measured {y.size}")
    denom = np.vdot(x, x)
    if denom == 0:
        raise MetricError("gain is undefined for an all-zero reference")
    return complex(np.vdot(x, y) / denom)


def _fmt(value: float) -> str:
    """Shortest decimal representation that round-trips the float."""
    return repr(float(value))


def _write_rows(path, header: list[str], keys: list[str], values: np.ndarray) -> None:
    """Write ``header`` lines, then a ``key,value,...`` row per key, the layout _read_rows reads.

    ``values`` holds one row of floats per key, in the order of ``keys``.
    """
    rows = zip(keys, values.tolist(), strict=True)
    lines = header + [",".join([key, *map(_fmt, row)]) for key, row in rows]
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped line) for every line that is neither blank nor a ``#`` comment.

    Line numbers count every line as it stands in the file.
    """
    numbered = ((i, line.strip()) for i, line in enumerate(text.splitlines(), start=1))
    return [(i, line) for i, line in numbered if line and not line.startswith("#")]


def _read_rows(path, lines, keys: list[str], width: int, fixed: dict | None = None) -> np.ndarray:
    """Read ``key,...,value,...`` rows that give each of ``keys`` exactly once.

    ``lines`` are (line number, line) pairs from _content_lines. A row's last
    ``width`` fields are its values and the fields before them its key.
    ``fixed`` maps a key to the only values its row may hold.

    Returns:
        A (len(keys), width) float64 array whose row i holds the values of keys[i].

    Raises:
        FormatError: naming ``path:line`` for a row whose key is unknown or
            repeated, or whose values are malformed, non-finite or not the
            fixed ones; naming ``path`` and the key when no row gives a key.
    """
    index = {key: i for i, key in enumerate(keys)}
    values = np.empty((len(keys), width))
    seen: dict[str, int] = {}
    for lineno, line in lines:
        fields = [f.strip() for f in line.split(",")]
        key = ",".join(fields[:-width])
        try:
            if key not in index:
                raise ValueError("no such row in this file's layout")
            if key in seen:
                raise ValueError(f"repeats the row on line {seen[key]}")
            row = tuple(float(f) for f in fields[-width:])
            if not all(map(math.isfinite, row)):
                raise ValueError("non-finite value")
            if row != (fixed or {}).get(key, row):
                raise ValueError(f"this row is fixed at {','.join(map(_fmt, fixed[key]))}")
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad row {line!r}: {exc}") from None
        seen[key] = lineno
        values[index[key]] = row
    for key in keys:
        if key not in seen:
            raise FormatError(f"{path}: missing row {key!r}")
    return values


def write_signal_csv(signal: IqSignal, path: str, metadata: dict | None = None) -> None:
    """Write a signal as `index,re,im` CSV plus a `<path>.meta` sidecar.

    The sidecar is a key: value text file and always carries sample_rate_hz;
    extra metadata entries (e.g. the generating OFDM config) are appended.
    """
    with open(path, "w") as fh:
        fh.write("index,re,im\n")
        for i, v in enumerate(signal.samples):
            fh.write(f"{i},{_fmt(v.real)},{_fmt(v.imag)}\n")
    meta = {"sample_rate_hz": _fmt(signal.sample_rate_hz)}
    if metadata:
        meta.update({str(k): str(v) for k, v in metadata.items()})
    with open(path + ".meta", "w") as fh:
        for key, value in meta.items():
            fh.write(f"{key}: {value}\n")


def read_signal_csv(path: str) -> tuple[IqSignal, dict]:
    """Read a signal written by write_signal_csv.

    Returns:
        (signal, metadata) where metadata holds the sidecar key/value pairs
        (values as strings, except sample_rate_hz which is consumed).

    Raises:
        FormatError: on malformed or non-finite rows (the message names the
            line number) or a missing/invalid sidecar.
    """
    meta_path = path + ".meta"
    if not os.path.exists(meta_path):
        raise FormatError(f"missing sidecar metadata file: {meta_path}")
    metadata: dict = {}
    with open(meta_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise FormatError(f"{meta_path}:{lineno}: expected 'key: value', got {line!r}")
            key, _, value = line.partition(":")
            metadata[key.strip()] = value.strip()
    if "sample_rate_hz" not in metadata:
        raise FormatError(f"{meta_path}: sidecar lacks sample_rate_hz")
    try:
        rate = float(metadata.pop("sample_rate_hz"))
    except ValueError as exc:
        raise FormatError(f"{meta_path}: bad sample_rate_hz") from exc
    if not 0 < rate < math.inf:
        raise FormatError(f"{meta_path}: sample_rate_hz must be positive and finite, got {rate}")

    values = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "index,re,im":
            raise FormatError(f"{path}:1: expected header 'index,re,im', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
            try:
                value = complex(float(parts[1]), float(parts[2]))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad numeric field") from exc
            if not cmath.isfinite(value):
                raise FormatError(f"{path}:{lineno}: non-finite sample {value}")
            values.append(value)
    if not values:
        raise FormatError(f"{path}: no samples")
    return IqSignal(np.array(values, dtype=np.complex128), rate), metadata
