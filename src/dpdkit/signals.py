"""Complex baseband signal container and basic signal utilities."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DpdError, FormatError, MetricError, _require_real


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
        _require_real("sample_rate_hz", self.sample_rate_hz, positive=True)
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


def _write_lines(path, header: list[str], rows) -> None:
    """Write ``header`` lines, then one comma-joined line per row of cells.

    A float cell is written by _fmt and any other cell by str. The text goes
    to a file beside ``path`` that is then renamed over it, so the file at
    ``path`` is always whole: the one before or the one written now.
    """
    lines = header + [",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)
                      for row in rows]
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write("".join(line + "\n" for line in lines))
    os.replace(tmp, path)


def _require_finite_rows(path, keys, values: np.ndarray) -> None:
    """Refuse, before ``path`` is written, a row its reader would refuse: one holding NaN or inf.

    ``values`` holds one row per key, in the order of ``keys``; the error names the first bad key.
    """
    finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
    if not finite.all():
        raise ConfigurationError(f"{path}: row {keys[int(finite.argmin())]!r} holds a non-finite "
                                 f"value, which its reader refuses; nothing was written")


def _write_rows(path, header: list[str], keys: list[str], values: np.ndarray) -> None:
    """Write ``header`` lines, then a ``key,value,...`` row per key, the layout _read_rows reads.

    ``values`` holds one row of floats per key, in the order of ``keys``.

    Raises:
        ConfigurationError: naming the first key whose row holds NaN or inf;
            nothing is written then.
    """
    _require_finite_rows(path, keys, values)
    _write_lines(path, header, ([key, *row] for key, row in zip(keys, values.tolist(), strict=True)))


def _read_text(path) -> str:
    """The text of the file at ``path``, decoded as UTF-8.

    Raises:
        FormatError: naming the path and the byte offset of the first byte
            that is not UTF-8.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()  # one decode of the whole file: offsets count from its start
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                          f"at offset {exc.start}") from None


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


def _read_header(path, lines, required: dict) -> tuple[dict, dict[str, int]]:
    """Read ``key: value`` lines that give each key at most once and each of ``required`` once.

    ``lines`` are (line number, line) pairs from _content_lines. ``required``
    maps a key to the function that reads its value; any other key keeps its
    text.

    Returns:
        (value of each key, line number of each key).

    Raises:
        FormatError: naming ``path:line`` for a line without a colon, a
            repeated key or a value its function refuses with ValueError;
            naming ``path`` and the key when a required key is missing.
    """
    values: dict = {}
    where: dict[str, int] = {}
    for lineno, line in lines:
        key, colon, value = (part.strip() for part in line.partition(":"))
        try:
            if not colon:
                raise ValueError("expected 'key: value'")
            if key in where:
                raise ValueError(f"repeats the key on line {where[key]}")
            values[key] = required.get(key, str)(value)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad line {line!r}: {exc}") from None
        where[key] = lineno
    for key in required:
        if key not in where:
            raise FormatError(f"{path}: missing key {key!r}")
    return values, where


def write_signal_csv(signal: IqSignal, path: str, metadata: dict | None = None) -> None:
    """Write a signal as `index,re,im` CSV plus a `<path>.meta` sidecar.

    The sidecar holds `key: value` lines: sample_rate_hz, then each metadata
    entry (e.g. the generating OFDM config) as strings.

    Raises:
        ConfigurationError: for a metadata entry that read_signal_csv would
            not give back as written, such as a sample_rate_hz key, a key
            holding a colon or a value holding a line break, and naming the
            first index of a NaN or inf sample; nothing is written then.
    """
    meta_path = f"{path}.meta"  # path may be a str or a Path
    meta = {"sample_rate_hz": _fmt(signal.sample_rate_hz)}
    for key, value in (metadata or {}).items():
        key, value = str(key), str(value)
        try:
            back = _read_header(path, _content_lines(f"{key}: {value}"), {})[0]
        except FormatError:
            back = {}
        if key in meta or back != {key: value}:
            raise ConfigurationError(f"metadata {key!r}: {value!r} would not read back as written")
        meta[key] = value
    x = signal.samples
    _require_finite_rows(path, range(x.size), x)
    _write_lines(path, ["index,re,im"], zip(range(x.size), x.real.tolist(), x.imag.tolist()))
    _write_lines(meta_path, [f"{key}: {value}" for key, value in meta.items()], [])


def read_signal_csv(path: str) -> tuple[IqSignal, dict]:
    """Read a signal written by write_signal_csv; blank and `#` lines are skipped.

    Returns:
        (signal, metadata) where metadata holds the sidecar key/value pairs
        (values as strings, except sample_rate_hz which is consumed).

    Raises:
        FormatError: naming ``path:line`` for a bad header, a malformed or
            non-finite row, or an index that is repeated or outside 0..n-1
            for n rows, and for a sidecar line that is not `key: value`,
            repeats a key or holds a bad sample_rate_hz; naming the file
            for a missing sidecar, rate or sample.
    """
    meta_path = f"{path}.meta"
    if not os.path.exists(meta_path):
        raise FormatError(f"missing sidecar metadata file: {meta_path}")
    metadata, where = _read_header(meta_path, _content_lines(_read_text(meta_path)),
                                   {"sample_rate_hz": float})
    lines = _content_lines(_read_text(path))
    if not lines or lines[0][1] != "index,re,im":
        raise FormatError(f"{path}:{lines[0][0] if lines else 1}: expected the header 'index,re,im'")
    rows = lines[1:]
    if not rows:
        raise FormatError(f"{path}: no samples")
    values = _read_rows(path, rows, [str(i) for i in range(len(rows))], 2)
    try:
        signal = IqSignal(values.view(np.complex128).ravel(), metadata.pop("sample_rate_hz"))
    except ConfigurationError as exc:  # the rows give at least one sample: the rate is at fault
        raise FormatError(f"{meta_path}:{where['sample_rate_hz']}: {exc}") from None
    return signal, metadata
