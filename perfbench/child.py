"""One benchmark repetition in its own process.

    python3 child.py RESULT_JSON MODE [dpdkit CLI arguments...]

MODE is ``import`` (import dpdkit.cli and exit; a warm-up), ``run`` (run
``dpdkit.cli.main`` once) or ``trace`` (the same, with every public dpdkit
function wrapped in a span). The result file records when dpdkit.cli was
ready, the time spent inside ``main``, its return code, the software
environment and, when tracing, the spans and counters.
"""

from __future__ import annotations

import json
import os
import sys
import time


def environment() -> dict:
    import numpy
    import scipy

    import dpdkit

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dpdkit": dpdkit.__version__,
        "dpdkit_file": dpdkit.__file__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        **{k: os.environ.get(k, "") for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


def main() -> int:
    result_path, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import dpdkit.cli

    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "env": environment()}
    if mode == "import":
        rc = 0
    else:
        recorder = None
        if mode == "trace":
            import tracer

            recorder = tracer.Tracer()
            recorder.install()
        t0 = time.monotonic()
        rc = dpdkit.cli.main(cli_args)
        result["run_s"] = time.monotonic() - t0
        if recorder is not None:
            result["unwrapped"] = recorder.unwrapped_bindings()
            result["spans"] = recorder.spans
            result["counters"] = dict(recorder.counters)
    result["rc"] = rc
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
