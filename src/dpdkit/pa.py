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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, FormatError, InputRangeError
from .mempoly import MemoryPolyModel, PolyShape, _apply
from .signals import IqSignal, _fmt

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
        saturation_output_limit: hard ceiling on the output magnitude.
        nominal_gain: declared complex gain used by receivers to normalize.
        noise_stddev: per-component standard deviation of the additive
            complex Gaussian output noise.
        seed: base seed for the per-call noise streams.
    """

    core: MemoryPolyModel
    saturation_output_limit: float
    nominal_gain: complex
    noise_stddev: float
    seed: int = 0
    _calls: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        if not self.saturation_output_limit > 0:
            raise ConfigurationError("saturation_output_limit must be positive")
        if self.noise_stddev < 0:
            raise ConfigurationError("noise_stddev must be >= 0")
        self.nominal_gain = complex(self.nominal_gain)
        if self.nominal_gain == 0:
            raise ConfigurationError("nominal_gain must be nonzero")

    def reset(self) -> None:
        """Rewind the noise stream to the state of a freshly built PA."""
        self._calls = 0

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


def save_pa_profile(pa: SimulatedPa, path: str) -> None:
    """Write a PA profile: key/value header plus p,m,re,im coefficient rows."""
    s = pa.core.shape
    with open(path, "w") as fh:
        fh.write(f"p_max: {s.p_max}\n")
        fh.write(f"main_taps: {s.main_taps}\n")
        fh.write(f"saturation_output_limit: {_fmt(pa.saturation_output_limit)}\n")
        fh.write(f"nominal_gain: {_fmt(pa.nominal_gain.real)},{_fmt(pa.nominal_gain.imag)}\n")
        fh.write(f"noise_stddev: {_fmt(pa.noise_stddev)}\n")
        fh.write(f"seed: {pa.seed}\n")
        for i, p in enumerate(range(1, s.p_max + 1, 2)):
            for m in range(s.main_taps):
                c = pa.core.alpha[i, m]
                fh.write(f"{p},{m},{_fmt(c.real)},{_fmt(c.imag)}\n")


def _profile_from_text(text: str, origin: str) -> SimulatedPa:
    keys: dict[str, str] = {}
    rows: list[tuple[int, int, complex]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" in line:
            key, _, value = line.partition(":")
            keys[key.strip()] = value.strip()
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise FormatError(f"{origin}:{lineno}: expected p,m,re,im")
        try:
            rows.append((int(parts[0]), int(parts[1]), complex(float(parts[2]), float(parts[3]))))
        except ValueError as exc:
            raise FormatError(f"{origin}:{lineno}: bad numeric field") from exc
    try:
        shape = PolyShape(p_max=int(keys["p_max"]), main_taps=int(keys["main_taps"]))
        limit = float(keys["saturation_output_limit"])
        g_re, g_im = (float(v) for v in keys["nominal_gain"].split(","))
        noise = float(keys["noise_stddev"])
        seed = int(keys["seed"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{origin}: bad or missing profile key: {exc}") from exc
    core = MemoryPolyModel.identity(shape)
    core.alpha[:] = 0
    for p, m, value in rows:
        if p % 2 == 0 or not 1 <= p <= shape.p_max or not 0 <= m < shape.main_taps:
            raise FormatError(f"{origin}: coefficient row ({p},{m}) outside declared shape")
        core.alpha[(p - 1) // 2, m] = value
    return SimulatedPa(
        core=core,
        saturation_output_limit=limit,
        nominal_gain=complex(g_re, g_im),
        noise_stddev=noise,
        seed=seed,
    )


def load_pa_profile(path: str) -> SimulatedPa:
    """Read a profile written by save_pa_profile (or hand-edited)."""
    with open(path) as fh:
        return _profile_from_text(fh.read(), path)


def load_default_pa() -> SimulatedPa:
    """The packaged default PA profile used by the examples and the harness."""
    text = importlib.resources.files("dpdkit").joinpath("profiles/default_pa.txt").read_text()
    return _profile_from_text(text, "profiles/default_pa.txt")
