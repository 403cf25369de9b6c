"""Simulated power amplifier: memory-polynomial core, soft clip, output noise.

The device model is a fixed memory polynomial followed by a phase-preserving
magnitude soft clip and additive complex circular Gaussian noise.  The clip
is exact passthrough below 90% of the saturation limit, a C1 cubic knee over
the top 10%, and hard-limited beyond it, so the output magnitude never
exceeds the configured limit.

Each apply() call draws its noise from a generator seeded by
(profile seed, call index): repeated runs against a freshly constructed PA
are bitwise reproducible, and separate calls never share generator state.
"""

from __future__ import annotations

import importlib.resources
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError, FormatError, InputRangeError, _require_integer, _require_real
)
from .mempoly import MemoryPolyModel, PolyShape, _apply, _poly_keys
from .signals import (
    IqSignal, _content_lines, _fmt, _read_header, _read_rows, _read_text, _write_rows
)

MAX_DRIVE = 1.5


def _soft_clip(y: np.ndarray, limit: float) -> np.ndarray:
    """Phase-preserving magnitude limiter with a cubic knee on [0.9L, 1.1L]."""
    if np.isinf(limit):
        return y
    r = np.abs(y)
    a, b = 0.9 * limit, 1.1 * limit
    out_mag = r.copy()
    out_mag[r >= b] = limit
    knee = (r > a) & (r < b)
    if np.any(knee):
        t = (r[knee] - a) / (b - a)
        # Hermite cubic: value a, slope 1 at the start; value L, slope 0 at the end
        h00 = 2 * t**3 - 3 * t**2 + 1
        h10 = t**3 - 2 * t**2 + t
        h01 = -2 * t**3 + 3 * t**2
        out_mag[knee] = h00 * a + h10 * (b - a) + h01 * limit
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(r > 0, out_mag / np.where(r > 0, r, 1.0), 0.0)
    return y * scale


@dataclass
class SimulatedPa:
    """A behavioral PA with a polynomial core, saturation and output noise.

    Attributes:
        core: the memory-polynomial transfer model (its linear tap is the
            small-signal gain).
        saturation_output_limit: hard ceiling on the output magnitude
            (inf: no clip).
        noise_stddev: finite per-component standard deviation of the
            additive complex Gaussian output noise.
        seed: base seed for the per-call noise streams.
    """

    core: MemoryPolyModel
    saturation_output_limit: float
    noise_stddev: float
    seed: int = 0
    _calls: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        # a wrong-typed setting or a negative seed fails here, naming its field, not in apply()
        _require_integer("seed", self.seed, 0)
        _require_real("noise_stddev", self.noise_stddev, 0)
        limit = self.saturation_output_limit
        # inf is a limit (no clip), so the type is checked but not finiteness
        if isinstance(limit, bool) or not isinstance(limit, numbers.Real) or not limit > 0:
            raise ConfigurationError(f"saturation_output_limit must be a positive real number, "
                                     f"got {limit!r}", "saturation_output_limit")

    def apply(self, signal: IqSignal) -> IqSignal:
        """Transmit a signal through the PA.

        Raises:
            InputRangeError: if any input sample magnitude exceeds 1.5
                (the device would be destroyed, not just saturated) or is
                not a number.
        """
        x = signal.samples
        peak = float(np.max(np.abs(x)))
        if not peak <= MAX_DRIVE:  # NaN fails this test too
            raise InputRangeError(f"input peak {peak:.4f} exceeds the allowed drive {MAX_DRIVE}")
        y = _apply(self.core, x)
        y = _soft_clip(y, self.saturation_output_limit)
        if self.noise_stddev > 0:
            rng = np.random.default_rng([self.seed, self._calls])
            y = y + self.noise_stddev * (
                rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
            )
        self._calls += 1
        return IqSignal(y, signal.sample_rate_hz)


# a profile's header keys, each with the function that reads its value
_PROFILE_HEADER = {"p_max": int, "main_taps": int, "saturation_output_limit": float,
                   "noise_stddev": float, "seed": int}


def _profile_keys(shape: PolyShape) -> list[str]:
    """A profile's `p,m` coefficient row keys: the main-branch keys of _poly_keys, in its order."""
    return [key.removeprefix("main,") for key in _poly_keys(shape) if key.startswith("main,")]


def save_pa_profile(pa: SimulatedPa, path: str) -> None:
    """Write a PA profile: `name: value` header lines plus a `p,m,re,im` row per key.

    Raises:
        ConfigurationError: before the file is opened, if the core has a
            conjugate branch or a dc term, which a profile cannot hold.
    """
    s = pa.core.shape
    extra = [f"{name}={getattr(s, name)}" for name in ("q_max", "conj_taps", "include_dc")
             if getattr(s, name)]
    if extra:
        raise ConfigurationError(f"a PA profile holds only the core's main branch, "
                                 f"not its {', '.join(extra)}")
    header = [
        f"p_max: {s.p_max}",
        f"main_taps: {s.main_taps}",
        f"saturation_output_limit: {_fmt(pa.saturation_output_limit)}",
        f"noise_stddev: {_fmt(pa.noise_stddev)}",
        f"seed: {pa.seed}",
    ]
    keys = _profile_keys(s)  # the main branch alone: theta's leading entries
    values = pa.core.theta[: len(keys)].view(np.float64).reshape(-1, 2)
    _write_rows(path, header, keys, values)


def _profile_from_text(text: str, origin: str) -> SimulatedPa:
    lines = _content_lines(text)
    header, where = _read_header(origin, [(i, line) for i, line in lines if ":" in line],
                                 _PROFILE_HEADER)
    rows = [(i, line) for i, line in lines if ":" not in line]
    try:
        shape = PolyShape(p_max=header["p_max"], main_taps=header["main_taps"])
        theta = _read_rows(origin, rows, _profile_keys(shape), 2).view(np.complex128).ravel()
        core = MemoryPolyModel(shape, theta)
        return SimulatedPa(core=core, saturation_output_limit=header["saturation_output_limit"],
                           noise_stddev=header["noise_stddev"], seed=header["seed"])
    except ConfigurationError as exc:  # each check on a header value names its field, so its line
        raise FormatError(f"{origin}:{where[exc.field]}: {exc}") from None


def load_pa_profile(path: str) -> SimulatedPa:
    """Read a profile written by save_pa_profile (or hand-edited)."""
    return _profile_from_text(_read_text(path), path)


def load_default_pa() -> SimulatedPa:
    """The packaged default PA profile used by the examples and the harness."""
    text = importlib.resources.files("dpdkit").joinpath("profiles/default_pa.txt").read_text()
    return _profile_from_text(text, "profiles/default_pa.txt")
