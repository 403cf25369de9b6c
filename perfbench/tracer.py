"""In-memory spans around dpdkit's public functions, and their self times.

The tracer wraps every public function defined in each loaded dpdkit module, then
rebinds every module attribute that still names an original: modules import
helpers by name (``from .nn import nn_forward``), so wrapping only the
defining module would miss those call sites. ``SimulatedPa.apply`` is a
method and is wrapped on its class; ``IqSignal`` construction is counted,
not spanned. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter


def net_matmuls(net, batch: int, backward: bool) -> list[tuple[int, int, int]]:
    """The (m, k, n) matmuls one forward or backward pass of a DenseNet runs.

    Forward: each layer's W (out x in) @ H (in x batch), plus the 2x2 bypass.
    Backward: each layer's weight gradient dpre (out x batch) @ act.T
    (batch x in) and upstream W.T (in x out) @ dpre (out x batch), plus the
    bypass's input gradient.
    """
    mats = []
    for w in net.weights:
        out_dim, in_dim = w.shape
        if backward:
            mats += [(out_dim, batch, in_dim), (in_dim, out_dim, batch)]
        else:
            mats.append((out_dim, in_dim, batch))
    mats.append((2, 2, batch))
    return mats


def matmul_macs(mats) -> int:
    return sum(m * k * n for m, k, n in mats)


def matmul_bytes(mats) -> int:
    """float64 bytes read (both operands) and written (the product)."""
    return sum(8 * (m * k + k * n + m * n) for m, k, n in mats)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _net_macs(net, n: int, backward: bool) -> int:
    return n * matmul_macs(net_matmuls(net, 1, backward))


def _count_pa_apply(c, args, kwargs):
    c["pa.apply.samples"] += len(_arg(args, kwargs, 1, "signal"))


def _count_nn_forward(c, args, kwargs):
    net, x = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "x")
    c["nn.nn_forward.samples"] += len(x)
    c["nn.macs"] += _net_macs(net, len(x), False)


def _count_nn_backward(c, args, kwargs):
    net, x = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "x")
    c["nn.macs"] += _net_macs(net, len(x), False) + _net_macs(net, len(x), True)


def _count_nn_backward_through_frozen(c, args, kwargs):
    dpd, pa_model = _arg(args, kwargs, 0, "dpd"), _arg(args, kwargs, 1, "pa_model")
    n = len(_arg(args, kwargs, 2, "x"))
    c["nn.macs"] += sum(_net_macs(net, n, b) for net in (dpd, pa_model) for b in (False, True))


def _count_build_basis(c, args, kwargs):
    x, shape = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "shape")
    c["mempoly.build_basis.bytes"] += len(x) * shape.n_basis_columns * 16


# work counters taken from a call's arguments, keyed by span name
COUNTERS = {
    "pa.apply": _count_pa_apply,
    "nn.nn_forward": _count_nn_forward,
    "nn.nn_backward": _count_nn_backward,
    "nn.nn_backward_through_frozen": _count_nn_backward_through_frozen,
    "mempoly.build_basis": _count_build_basis,
}


def _dpdkit_modules() -> dict:
    return {name: mod for name, mod in sorted(sys.modules.items())
            if name == "dpdkit" or name.startswith("dpdkit.")}


def _public_dpdkit_function(obj) -> bool:
    return (inspect.isfunction(obj) and obj.__module__.startswith("dpdkit")
            and not obj.__name__.startswith("_"))


class Tracer:
    """Records one span per wrapped call: [name, start_ns, end_ns, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._wrappers: set = set()

    def wrap(self, name: str, fn, count=None):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(counters, args, kwargs)
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        self._wrappers.add(traced)
        return traced

    def install(self) -> None:
        """Wrap every loaded dpdkit module in place (import dpdkit.cli first)."""
        modules = _dpdkit_modules()
        wrapped = {}
        for mod_name, mod in modules.items():
            short = mod_name.removeprefix("dpdkit.")
            for attr, obj in vars(mod).items():
                if _public_dpdkit_function(obj) and obj.__module__ == mod_name:
                    name = f"{short}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, COUNTERS.get(name))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

        pa_cls = modules["dpdkit.pa"].SimulatedPa
        pa_cls.apply = self.wrap("pa.apply", pa_cls.apply, COUNTERS["pa.apply"])
        signal_cls = modules["dpdkit.signals"].IqSignal
        post_init, counters = signal_cls.__post_init__, self.counters

        def counted_post_init(obj):
            counters["signals.IqSignal.created"] += 1
            post_init(obj)

        signal_cls.__post_init__ = counted_post_init

    def unwrapped_bindings(self) -> list[str]:
        """Public dpdkit functions that some loaded dpdkit module still binds unwrapped.

        Run after the traced call as well: a module imported lazily during
        it was never wrapped.
        """
        return [
            f"{mod_name}.{attr}"
            for mod_name, mod in _dpdkit_modules().items()
            for attr, obj in vars(mod).items()
            if _public_dpdkit_function(obj) and obj not in self._wrappers
        ]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover, in ns.

    ``spans`` holds (name, start, end, parent) with parent an index into the
    list or -1. Child intervals are clipped to the parent and merged before
    subtracting, so overlapping or escaping children are not counted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += (end - start) / 1e9
        entry["self_s"] += own / 1e9
    return out
