"""Direct timings of the network kernels, outside any sweep.

    python3 probes.py RESULT_JSON

Times ``nn_backward`` and ``nn_backward_through_frozen`` on 1024-sample
minibatches and ``nn_forward`` on a full 40,960-sample frame, for the
predistorter shape (K=1, N=14) and the amplifier-model shape (K=2, N=24).
Each probe reports the median microseconds per call over round-robin
calls, with the MACs and float64 bytes its matmuls compute (see
tracer.net_matmuls).
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from tracer import matmul_bytes, matmul_macs, net_matmuls

BATCH = 1024
DPD_SHAPE, PA_MODEL_SHAPE = (1, 14), (2, 24)
PROBE_SECONDS = 1.5
MIN_ROUNDS = 15


def _time_round_robin(fns: list) -> list[float]:
    """Median microseconds per call of each function, calling them in turn.

    Round-robin calls let every probe see the same machine load, where
    timing them one after another would put a burst of load on one alone.
    """
    for fn in fns:
        for _ in range(3):
            fn()
    times: list[list[int]] = [[] for _ in fns]
    deadline = time.perf_counter() + PROBE_SECONDS
    while len(times[0]) < MIN_ROUNDS or time.perf_counter() < deadline:
        for fn, samples in zip(fns, times):
            t0 = time.perf_counter_ns()
            fn()
            samples.append(time.perf_counter_ns() - t0)
    return [statistics.median(samples) / 1e3 for samples in times]


def main() -> int:
    from dpdkit import IqSignal, OfdmConfig, generate_ofdm, glorot_net
    from dpdkit.nn import nn_backward, nn_backward_through_frozen, nn_forward

    _, frame = generate_ofdm(OfdmConfig(n_symbols=10, seed=1))
    batch = IqSignal(frame.samples[:BATCH], frame.sample_rate_hz)
    target = IqSignal(frame.samples[1 : BATCH + 1], frame.sample_rate_hz)
    nets = {shape: glorot_net(*shape, seed=[7, *shape]) for shape in (DPD_SHAPE, PA_MODEL_SHAPE)}
    dpd, pa_model = nets[DPD_SHAPE], nets[PA_MODEL_SHAPE]

    def tag(shape):
        return f"K{shape[0]}N{shape[1]}"

    probes = []
    for shape, net in nets.items():
        probes.append((
            f"probe.nn_backward.{tag(shape)}.b{BATCH}",
            lambda net=net: nn_backward(net, batch, target),
            net_matmuls(net, BATCH, False) + net_matmuls(net, BATCH, True),
        ))
    probes.append((
        f"probe.nn_backward_through_frozen.{tag(DPD_SHAPE)}-{tag(PA_MODEL_SHAPE)}.b{BATCH}",
        lambda: nn_backward_through_frozen(dpd, pa_model, batch),
        [m for net in (dpd, pa_model) for b in (False, True) for m in net_matmuls(net, BATCH, b)],
    ))
    for shape, net in nets.items():
        probes.append((
            f"probe.nn_forward.{tag(shape)}.frame",
            lambda net=net: nn_forward(net, frame),
            net_matmuls(net, len(frame), False),
        ))

    result = {}
    micros = _time_round_robin([fn for _, fn, _ in probes])
    for (name, _, mats), us in zip(probes, micros):
        result[f"{name}.us"] = us
        result[f"{name}.macs"] = matmul_macs(mats)
        result[f"{name}.bytes"] = matmul_bytes(mats)
    with open(sys.argv[1], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
