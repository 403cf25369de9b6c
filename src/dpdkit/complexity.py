"""Per-sample multiplication and parameter accounting for both DPD families.

The counts follow the hardware conventions the rest of the package is built
around: a complex-by-complex product costs three real multiplications, the
envelope powers |x|^(p-1) = (Re^2 + Im^2)^((p-1)/2) are built once per
nonlinearity order and shared across memory taps through delay lines, and
fixed identity paths (the network's bypass, the p=1 branch value) cost
nothing. The polynomial's counts are sums over its branches
(PolyShape.branches), the network's over its weight matrices (one multiply
per weight, one parameter per weight and bias). The test suite checks each
count against instrumented forwards that execute that exact datapath one
sample at a time and tally every real multiply event.

A design point is named by its descriptor text, and this module is the only
one that writes or reads it: ``poly_count`` and ``nn_count`` write it,
``parse_descriptor`` reads it back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ConfigurationError
from .mempoly import PolyShape
from .nn import _weight_shapes

__all__ = [
    "ComplexityReport",
    "poly_count",
    "nn_count",
    "parse_descriptor",
]


@dataclass(frozen=True)
class ComplexityReport:
    n_params_real: int
    n_mults: int
    model_descriptor: str

    def __post_init__(self):
        if self.n_params_real < 0 or self.n_mults < 0:
            raise ConfigurationError("complexity counts cannot be negative")


def poly_count(shape: PolyShape) -> ComplexityReport:
    """Real coefficients (DC excluded by convention), real multiplies per sample, descriptor."""
    text = f"poly P={shape.p_max} M={shape.main_taps}"
    if shape.q_max:
        text += f" Q={shape.q_max} L={shape.conj_taps}"
    if shape.include_dc:
        text += " +dc"
    # (order + 5) / 2 per branch of order 3 and up; order 1 has no envelope
    envelopes = sum((order + 5) // 2 for _, order, _ in shape.branches if order > 1)
    return ComplexityReport(
        n_params_real=2 * shape.n_complex_coeffs,
        n_mults=3 * shape.n_complex_coeffs + envelopes,
        model_descriptor=text,
    )


def nn_count(hidden_layers: int, width: int) -> ComplexityReport:
    """Real trainable parameters, real multiplies per sample, descriptor.

    Sums over the net's weight matrices; the fixed identity bypass is
    neither a parameter nor a multiply.
    """
    shapes = _weight_shapes(hidden_layers, width)
    return ComplexityReport(
        n_params_real=sum(rows * cols + rows for rows, cols in shapes),
        n_mults=sum(rows * cols for rows, cols in shapes),
        model_descriptor=f"nn_K{hidden_layers}_N{width}",
    )


_NN_SLUG = re.compile(r"nn_K([0-9]+)_N([0-9]+)")
_FIELD = re.compile(r"([A-Z])=([0-9]+)|\+dc")
_FIELDS = {"poly": ("P", "M", "Q", "L", "+dc"), "nn": ("K", "N")}


def parse_descriptor(text: str) -> tuple[str, PolyShape | tuple[int, int], ComplexityReport]:
    """Read descriptor text as ("poly", PolyShape, report) or ("nn", (K, N), report).

    The grammar is ``poly P=<p> [M=<taps>] [Q=<q> L=<taps>] [+dc]`` (M
    defaults to 1) and ``nn K=<k> N=<n>``, fields in any order, each at most
    once; ``nn_K<k>_N<n>`` is the network's spelling in sweep.csv. The report
    is the one poly_count or nn_count gives, so its text names the row.

    Raises:
        ConfigurationError: on anything else, including a non-string.
    """
    if not isinstance(text, str):
        raise ConfigurationError(f"descriptor must be a string, got {type(text).__name__}")
    slug = _NN_SLUG.fullmatch(text.strip())
    if slug:
        kind, fields = "nn", {"K": slug[1], "N": slug[2]}
    else:
        kind, *parts = text.split() or [""]
        if kind not in _FIELDS:
            raise ConfigurationError(f"descriptor kind must be 'poly' or 'nn': {text!r}")
        fields = {}
        for part in parts:
            match = _FIELD.fullmatch(part)
            key = (match[1] or match[0]) if match else None
            if key not in _FIELDS[kind] or key in fields:
                raise ConfigurationError(f"bad field {part!r} in descriptor {text!r}")
            fields[key] = match[2]
    try:
        if kind == "nn":
            k, n = int(fields["K"]), int(fields["N"])
            return "nn", (k, n), nn_count(k, n)
        shape = PolyShape(
            p_max=int(fields["P"]),
            main_taps=int(fields.get("M", 1)),
            q_max=int(fields.get("Q", 0)),
            conj_taps=int(fields.get("L", 0)),
            include_dc="+dc" in fields,
        )
    except KeyError as exc:
        raise ConfigurationError(f"descriptor {text!r} lacks field {exc}") from None
    except ConfigurationError as exc:
        raise ConfigurationError(f"bad descriptor {text!r}: {exc}") from None
    return "poly", shape, poly_count(shape)
