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
``parse_descriptor`` reads it back, and ``FAMILIES`` defines each family.
"""

from __future__ import annotations

import re
from dataclasses import astuple, dataclass, fields
from typing import Callable

from .errors import ConfigurationError, _require_integer
from .fixedpoint import nn_forward_fixed, poly_forward_fixed
from .mempoly import PolyShape, fit_ila, poly_predistort, rescale_cascade_gain, save_poly_model
from .nn import _weight_shapes, nn_forward, save_net
from .training import DEFAULT_PA_MODEL_SHAPE, TrainRecord, run_full_training

__all__ = [
    "FAMILIES",
    "POLY_FIXED_BACKOFF",
    "ComplexityReport",
    "Family",
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
        for name in ("n_params_real", "n_mults"):
            _require_integer(name, getattr(self, name), 0)


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


# A fixed-point sweep backs each fitted polynomial off to this cascade gain, as its linear
# coefficient sits just above Q1.15's range; the float row uses the same backed-off model.
POLY_FIXED_BACKOFF = 0.95


@dataclass(frozen=True)
class Family:
    """A predistorter family. It holds no public function: each callable names its function as
    a module global at call time, so a rebinding of that global reaches every call."""

    fields: tuple[str, ...]  # the descriptor's field names
    params: Callable[[dict], object]  # {field name: text} -> the family's parameters
    count: Callable[[object], ComplexityReport]
    fit: Callable  # (params, pa, spec, x_train) -> (model, trainlog header, trainlog rows)
    forward: Callable  # (model, x) -> the float predistorter's output
    forward_fixed: Callable  # (model, x, fmt, stats) -> the fixed-point predistorter's output
    save: Callable  # (model, path) -> None: writes the model file


def _fit_poly(shape, pa, spec, x_train):
    model, residuals = fit_ila(pa, shape, x_train, spec.train.outer_iterations)
    if spec.fixed_point is not None:
        model = rescale_cascade_gain(model, POLY_FIXED_BACKOFF)
    return model, "iteration,residual", list(enumerate(residuals, start=1))


def _fit_nn(kn, pa, spec, x_train):
    net, log = run_full_training(pa, (kn, DEFAULT_PA_MODEL_SHAPE), spec.train, spec.frames())
    return net, ",".join(f.name for f in fields(TrainRecord)), list(map(astuple, log.records))


# keyed by the descriptor's leading word
FAMILIES = {
    "poly": Family(
        fields=("P", "M", "Q", "L", "+dc"),
        params=lambda f: PolyShape(int(f["P"]), int(f.get("M", 1)), int(f.get("Q", 0)),
                                   int(f.get("L", 0)), include_dc="+dc" in f),
        count=lambda shape: poly_count(shape),
        fit=_fit_poly,
        forward=lambda model, x: poly_predistort(model, x),
        forward_fixed=lambda model, x, fmt, stats: poly_forward_fixed(model, x, fmt, stats),
        save=lambda model, path: save_poly_model(model, path),
    ),
    "nn": Family(fields=("K", "N"), params=lambda f: (int(f["K"]), int(f["N"])),
                 count=lambda kn: nn_count(*kn), fit=_fit_nn,
                 forward=lambda net, x: nn_forward(net, x),
                 forward_fixed=lambda net, x, fmt, stats: nn_forward_fixed(net, x, fmt, stats),
                 save=lambda net, path: save_net(net, path)),
}
_NN_SLUG = re.compile(r"nn_K([0-9]+)_N([0-9]+)")
_FIELD = re.compile(r"([A-Z])=([0-9]+)|\+dc")


def parse_descriptor(text: str) -> tuple[Family, PolyShape | tuple[int, int], ComplexityReport]:
    """Read descriptor text as (FAMILIES entry, PolyShape or (K, N), report).

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
    name, *parts = (f"nn K={slug[1]} N={slug[2]}" if slug else text).split() or [""]
    if name not in FAMILIES:
        raise ConfigurationError(f"descriptor must start with one of {list(FAMILIES)}: {text!r}")
    family, fields = FAMILIES[name], {}
    for part in parts:
        match = _FIELD.fullmatch(part)
        key = (match[1] or match[0]) if match else None
        if key not in family.fields or key in fields:
            raise ConfigurationError(f"bad field {part!r} in descriptor {text!r}")
        fields[key] = match[2]
    try:
        params = family.params(fields)
        return family, params, family.count(params)
    except KeyError as exc:
        raise ConfigurationError(f"descriptor {text!r} lacks field {exc}") from None
    except ConfigurationError as exc:
        raise ConfigurationError(f"bad descriptor {text!r}: {exc}") from None
