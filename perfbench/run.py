"""dpdkit benchmark: timed sweeps, a byte-level output gate and a traced per-module run.

    python3 perfbench/run.py --workload sweep_default --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # every workload, both runs

Each workload is a closed loop with one client: every repetition is a fresh
child process (child.py) that runs ``dpdkit.cli.main`` once with BLAS pinned
to one thread, and the next repetition starts only after it has exited.
``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced repetitions, reports the
per-layer metrics from the traced ones (tracer.py), the tracing overhead,
and the network kernel probes (probes.py). Both check every artifact
against the committed sha256 digests in reference/ at the reference seed
and, on other seeds, that repetitions agree with each other.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the software environment, is written to results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
REFERENCE_DIR = BENCH_DIR / "reference"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# children run from ROOT, so the spec paths in WORKLOADS are relative to it;
# benchmark seed s runs --wave-seed s+1 --seed s; seed 0 is the README's sweep
REFERENCE_SEED = 0
# rounds always run, even past --seconds: one repetition untraced, or an
# untraced-traced pair; fewer pairs keep a traced run inside its time budget
MIN_ROUNDS = {False: 3, True: 2}
RUN_DEADLINE_S = 170
PERCENTILE_LADDER = (50, 75, 90, 95, 99, 99.9)
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = {
    "sweep_default": ["sweep", "--fixed-point"],
    "poly_grid": ["sweep", "--spec", f"{BENCH_DIR.name}/workloads/poly_grid.json"],
    "nn_wide": ["sweep", "--spec", f"{BENCH_DIR.name}/workloads/nn_wide.json"],
}

# Exact span counts a traced sweep_default must show. run_full_training
# regenerates the frames the harness already holds (6 generate_ofdm calls);
# 2 nets x 25 epochs x 40 minibatches give 2000 steps per phase.
EXPECTED_CALLS = {
    "sweep_default": {
        "training.adam_step": 4000,
        "nn.nn_backward": 2000,
        "nn.nn_backward_through_frozen": 2000,
        "nn.nn_forward": 156,
        "pa.apply": 20,
        "ofdm.generate_ofdm": 6,
    },
}

NN_KERNELS = ("nn.nn_forward", "nn.nn_backward", "nn.nn_backward_through_frozen")
TIMINGS = ("wall_s", "run_s", "setup_s", "cpu_s", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------- statistics

def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of n samples beyond it.

    The p-th percentile is the nearest-rank sample ceil(p * n / 100), so
    n - ceil(p * n / 100) samples lie beyond it.
    """
    best = None
    for p in PERCENTILE_LADDER:
        if n - math.ceil(p * n / 100) >= 10:
            best = p
    return best


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100) - 1, 0)]


def describe(values) -> dict:
    """Median, the tail percentile the sample count supports, and the count."""
    p = tail_percentile(len(values))
    return {
        "median": statistics.median(values),
        "n": len(values),
        "tail_p": p,
        "tail_value": percentile(values, p) if p is not None else None,
        "values": list(values),
    }


# ---------------------------------------------------------------- output gate

def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by its path relative to root."""
    if not root.is_dir():
        return {}
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def count_mismatches(expected: dict[str, str], actual: dict[str, str]) -> int:
    """Files whose digest differs, counting files present on one side only."""
    return sum(expected.get(k) != actual.get(k) for k in expected.keys() | actual.keys())


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def read_rows(sweep_csv: Path) -> list[dict]:
    lines = sweep_csv.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------- children

class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def _wait(proc: subprocess.Popen, timeout_s: int):
    """Reap the child with wait4, for its rusage; kill it after timeout_s."""
    waited = None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(max(timeout_s, 1))
    try:
        waited = os.wait4(proc.pid, 0)
    except _Timeout:
        pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if waited is None:
        proc.kill()
        waited = os.wait4(proc.pid, 0)
    _, status, usage = waited
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def spawn(script: str, args: list[str], work: Path, timeout_s: int) -> dict:
    """Run one child to completion; return its timings and its result file."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_PIN)
    result_path = work / "result.json"
    with open(work / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / script), str(result_path), *args],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        rc, usage = _wait(proc, timeout_s)
        t_exit = time.monotonic()
    result = None
    if result_path.is_file():
        with open(result_path) as fh:
            result = json.load(fh)
    return {
        "t0": t0,
        "wall_s": t_exit - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "rc": rc,
        "result": result,
        "stderr": (work / "stderr.txt").read_text(errors="replace")[-2000:],
    }


def run_rep(workload: str, seed: int, mode: str, work_root: Path, deadline: float) -> dict:
    """One sweep repetition: time it, read its rows, digest its artifacts."""
    work = Path(tempfile.mkdtemp(prefix="rep-", dir=work_root))
    out = work / "out"
    args = [mode, *WORKLOADS[workload], "--wave-seed", str(seed + 1), "--seed", str(seed),
            "--out", str(out)]
    try:
        child = spawn("child.py", args, work, int(deadline - time.monotonic()))
        result = child.pop("result")
        rep = {"mode": mode, **child, "ok": child["rc"] == 0 and result is not None}
        if result is not None:
            rep["setup_s"] = result["t_ready"] - child["t0"]
            rep["run_s"] = result.get("run_s")
            rep["env"] = result["env"]
            rep["unwrapped"] = result.get("unwrapped", [])
            rep["spans"] = result.get("spans")
            rep["counters"] = result.get("counters", {})
        sweep_csv = out / "sweep.csv"
        rep["rows"] = read_rows(sweep_csv) if sweep_csv.is_file() else []
        rep["digests"] = digest_tree(out)
        rep["artifact_bytes"] = (sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
                                 if out.is_dir() else 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rep


def warm_up(work_root: Path, deadline: float) -> None:
    """Import dpdkit once untimed, so bytecode and file caches are filled."""
    work = Path(tempfile.mkdtemp(prefix="warm-", dir=work_root))
    try:
        spawn("child.py", ["import"], work, int(deadline - time.monotonic()))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_probes(work_root: Path, deadline: float) -> dict:
    work = Path(tempfile.mkdtemp(prefix="probe-", dir=work_root))
    try:
        child = spawn("probes.py", [], work, int(deadline - time.monotonic()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if child["result"] is None:
        raise BenchError(f"kernel probes failed:\n{child['stderr']}")
    return child["result"]


# ---------------------------------------------------------------- metrics

def row_failures(rep: dict, expected_rows: int) -> tuple[int, int]:
    """(rows attempted, rows failed); a crashed or nonzero-exit run fails all."""
    attempted = max(len(rep["rows"]), expected_rows)
    if not rep["ok"]:
        return attempted, attempted
    return attempted, sum(row["status"] != "ok" for row in rep["rows"])


def layer_metrics(rep: dict, names: list[str]) -> dict[str, float]:
    """Per-layer values of one traced repetition, for the names a run reports."""
    spans = summarize(rep["spans"])
    counters = rep["counters"]
    kernel_s = sum(spans.get(k, {}).get("self_s", 0.0) for k in NN_KERNELS)
    training_s = spans.get("training.run_full_training", {}).get("total_s", 0.0)
    derived = {
        "nn.gmacs_per_s": counters.get("nn.macs", 0) / kernel_s / 1e9 if kernel_s else 0.0,
        "training.steps_per_s": (spans.get("training.adam_step", {}).get("calls", 0) / training_s
                                 if training_s else 0.0),
        "harness.artifact_bytes": rep["artifact_bytes"],
        "trace.accounted_frac": sum(s["self_s"] for s in spans.values()) / rep["run_s"],
    }
    values = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif name.startswith(("trace.", "probe.")):
            continue  # filled in from the whole run
        elif field in ("calls", "self_s"):
            values[name] = spans.get(span, {}).get(field, 0)
        else:
            values[name] = counters.get(name, 0)
    return values


def traced_values(workload: str, reps: list[dict], declared: dict, problems: list) -> dict:
    """Per-layer medians over the traced repetitions; coverage problems go to `problems`.

    The output gate in bench() already compares the traced repetitions'
    artifacts with the untraced ones or with the reference digests.
    """
    traced = [r for r in reps if r["mode"] == "trace" and r["ok"]]
    if not traced:
        raise BenchError("no traced repetition completed:\n" + "\n".join(problems))
    found = set()
    for rep in traced:
        found.update(f"tracer missed binding {name}" for name in rep["unwrapped"])
        calls = summarize(rep["spans"])
        for span, count in EXPECTED_CALLS.get(workload, {}).items():
            seen = calls.get(span, {}).get("calls", 0)
            if seen != count:
                found.add(f"{span} ran {seen} times, expected {count}")
    problems.extend(sorted(found))
    names = [m["name"] for m in declared["per_layer"]]
    per_rep = [layer_metrics(r, names) for r in traced]
    values = {name: statistics.median(v[name] for v in per_rep) for name in per_rep[0]}
    values["trace.run_s"] = statistics.median(r["run_s"] for r in traced)
    # repetitions alternate untraced, traced: pairs are adjacent in time
    values["trace.overhead_s"] = statistics.median(
        t["run_s"] - u["run_s"] for u, t in zip(reps[::2], reps[1::2]) if u["ok"] and t["ok"])
    return values


def bench(workload: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    """Run one workload for about `seconds`; return the report."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    reference = load_reference(workload)
    expected_rows = reference["rows"]
    RESULTS_DIR.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS_DIR))
    problems: list[str] = []
    try:
        warm_up(work_root, deadline)
        reps = []
        modes = ("run", "trace") if trace else ("run",)
        measuring = time.monotonic()
        while True:
            round_start = time.monotonic()
            for mode in modes:
                reps.append(run_rep(workload, seed, mode, work_root, deadline))
            # stop before a round that would end after `seconds`
            now = time.monotonic()
            if (len(reps) >= MIN_ROUNDS[trace] * len(modes)
                    and now + (now - round_start) > measuring + seconds):
                break
        probes = run_probes(work_root, deadline) if trace else {}
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    plain = [r for r in reps if r["mode"] == "run"]
    traced = [r for r in reps if r["mode"] == "trace"]
    attempted = failed = 0
    for rep in reps:
        a, f = row_failures(rep, expected_rows)
        attempted, failed = attempted + a, failed + f
        if not rep["ok"]:
            problems.append(f"{rep['mode']} repetition exited {rep['rc']}: {rep['stderr']}")
        elif not Path(rep["env"]["dpdkit_file"]).resolve().is_relative_to(SRC.resolve()):
            problems.append(f"dpdkit imported from {rep['env']['dpdkit_file']}, not {SRC}")

    # output gate: the committed digests at the reference seed, else the first repetition
    if seed == REFERENCE_SEED:
        expected, compared = reference["files"], reps
    else:
        expected, compared = plain[0]["digests"], reps[1:]
    mismatches = sum(count_mismatches(expected, rep["digests"]) for rep in compared)
    checked = sum(len(expected.keys() | rep["digests"].keys()) for rep in compared)
    if mismatches:
        problems.append(f"{mismatches} artifact(s) differ from the expected digests")
    if failed:
        problems.append(f"{failed} of {attempted} sweep rows failed")

    ok_rows = [row for rep in reps if rep["ok"] for row in rep["rows"] if row["status"] == "ok"]
    timed = [r for r in plain if r["ok"]]
    if not timed or not ok_rows:
        raise BenchError("no repetition completed:\n" + "\n".join(problems))
    timings = {name: describe([r[name] for r in timed]) for name in TIMINGS}
    aclr_worst = max(float(row["aclr_db"]) for row in ok_rows)
    evm_worst = max(float(row["evm_pct"]) for row in ok_rows)
    values = {name: timings[name]["median"] for name in TIMINGS}
    values.update({
        "rows_ok_frac": 1.0 - failed / attempted,
        "artifacts_match_frac": 1.0 - mismatches / checked if checked else 1.0,
        # positive dB forms of the worst ACLR and EVM, so every metric is
        # positive and none moves by a large share between seeds
        "aclr_suppression_db_worst": -aclr_worst,
        "mer_db_worst": -20.0 * math.log10(evm_worst / 100.0),
    })
    report_only = {
        "failed_frac": failed / attempted,
        "artifact_mismatches": mismatches,
        "aclr_db_worst": aclr_worst,
        "evm_pct_worst": evm_worst,
    }

    if trace:
        values = traced_values(workload, reps, declared, problems)
        values.update(probes)
        report_only["trace.untraced_run_s"] = timings["run_s"]["median"]

    wanted = declared["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "report_only": report_only,
        "timings": timings,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "env": {**timed[0]["env"], "git_commit": git_commit(), "workload_seed": seed},
        "spans": traced[-1]["spans"] if trace else None,
    }


# ---------------------------------------------------------------- reporting

def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def print_report(report: dict) -> None:
    head = f"== {report['workload']} seed={report['seed']} trace={report['trace']}"
    print(f"{head}  repetitions={report['repetitions']}")
    for name, spec in report["metrics"].items():
        line = f"  {name:58s} {spec['value']:.6g} {spec['unit']}"
        t = report["timings"].get(name)
        if t is not None and not report["trace"]:
            tail = (f"p{t['tail_p']:g}={t['tail_value']:.6g}" if t["tail_p"] is not None
                    else "no percentile has >=10 samples beyond it")
            line += f"  (median, n={t['n']}, {tail})"
        print(line)
    for name, value in report["report_only"].items():
        print(f"  {name:58s} {value:.6g}")
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")
    print("  env " + json.dumps(report["env"], sort_keys=True))


def write_reference(workload: str) -> None:
    """Record the artifact digests of one reference-seed repetition."""
    RESULTS_DIR.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="ref-", dir=RESULTS_DIR))
    try:
        rep = run_rep(workload, REFERENCE_SEED, "run", work_root,
                      time.monotonic() + RUN_DEADLINE_S)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    if not rep["ok"] or any(row["status"] != "ok" for row in rep["rows"]):
        raise BenchError(f"reference run of {workload} failed:\n{rep['stderr']}")
    reference = {
        "workload": workload,
        "seed": REFERENCE_SEED,
        "cli_args": WORKLOADS[workload],
        "blas_pin": BLAS_PIN,
        "rows": len(rep["rows"]),
        "files": rep["digests"],
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{workload}.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_DIR / f'{workload}.json'}: {len(rep['digests'])} files")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"one of {sorted(WORKLOADS)} or 'all'")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the reference-seed artifact digests and exit")
    args = parser.parse_args(argv)

    if not (SRC / "dpdkit" / "cli.py").is_file():
        print(f"error: no dpdkit source at {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    import selftest

    if not selftest.passed():
        print("error: benchmark self-tests failed", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        for workload in workloads:
            write_reference(workload)
        return 0

    with open(BENCHMARK_JSON) as fh:
        declared = json.load(fh)
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    runs = [(w, t) for w in workloads for t in ((0, 1) if args.workload == "all" else (args.trace,))]
    reports = []
    try:
        for workload, trace in runs:
            report = bench(workload, args.seed, seconds, bool(trace), declared)
            stem = f"{workload}_seed{args.seed}"
            spans = report.pop("spans")
            if spans is not None:
                (RESULTS_DIR / f"SPANS_{stem}.json").write_text(json.dumps(spans))
            out = RESULTS_DIR / f"BENCH_{stem}_trace{trace}.json"
            out.write_text(json.dumps(report, indent=1) + "\n")
            print_report(report)
            reports.append(report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": spec for r in reports
                   for name, spec in r["metrics"].items()}
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
