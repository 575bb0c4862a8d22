"""georisk benchmark launcher.

    python3 bench/run.py --workload riskmap-n1053 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Runs one workload's command until ``--seconds`` have passed (at least
once; each command here takes longer than 10 s) and prints, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``. Every measured
georisk command runs in its own fresh interpreter (``worker.py``), which
checks the command's outputs. The lines before the result give the
environment, each command, ``riskmap_s`` or ``sim_replicates_per_s``,
``failed_frac`` and ``mean_se_corrected``.

With ``--trace 0`` the metrics are end-to-end (``setup_s``,
``command_norm_s``, ``peak_rss_mb``): medians over the commands and
set-ups of the run. Both times are normalised to a nominal host speed
(``speed.py``); the raw wall times are printed on the lines before. With
``--trace 1`` the run makes one untraced and one traced command and
reports the per-layer metrics of the traced one plus the tracing overhead
(traced minus untraced wall time). Spans are written to
``bench/_work/<workload>/spans.jsonl``. Metric names and units come from
``BENCHMARK.json``.

``--workload all`` measures every workload in turn and prints one result
line per workload. Exits non-zero when an output check fails, and without
a result when georisk cannot be run or a worker fails outright.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"

sys.path.insert(0, str(BENCH_DIR))
from speed import kernel_times, normalise  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # set-ups per run; setup_s is their median
SETUP_KERNEL_SAMPLES = 3  # speed-kernel samples taken just before each set-up
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_THREADS = 1


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: with two per process, two concurrent runs on a
    # 2-core machine made a 13 s simulate command take 79-91 s, while one
    # thread costs at most a 2x slowdown under the same contention.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(workload, seed, env, deadline, *, trace=False, setup_only=False) -> dict:
    """Start one worker; return its result plus ``setup_s``, the time from
    process start to its READY line, normalised to the nominal host speed
    by kernel samples taken just before the start."""
    work = WORK_DIR / workload
    work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        samples = kernel_times(SETUP_KERNEL_SAMPLES)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                                stderr=log, text=True)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if code != 0 or first.strip() != "READY":
        tail = (work / "worker.log").read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"worker exited with code {code}:\n{tail}")
    setup = {"setup_wall_s": setup_s, "setup_s": normalise(setup_s, samples)}
    if setup_only:
        return setup
    return {**json.loads(rest.strip().splitlines()[-1]), **setup}


def end_to_end(workload, seed, seconds, env, deadline) -> tuple:
    setups = [run_worker(workload, seed, env, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    results = []
    start = time.monotonic()
    while True:
        res = run_worker(workload, seed, env, deadline)
        results.append(res)
        setups.append(res["setup_s"])
        elapsed = time.monotonic() - start
        # stop at the measuring time, or before a further command would
        # run past the run's time limit
        if elapsed >= seconds or time.monotonic() + elapsed / len(results) > deadline:
            break
    values = {
        "setup_s": statistics.median(setups),
        "command_norm_s": statistics.median(r["command_norm_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    return results, values


def traced(workload, seed, env, deadline) -> tuple:
    base = run_worker(workload, seed, env, deadline)
    res = run_worker(workload, seed, env, deadline, trace=True)
    overhead = res["command_s"] - base["command_s"]
    values = dict(res["layers"])
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / base["command_s"]
    return [base, res], values


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace, env, units) -> int:
    """Measure one workload and print its lines, ending with the result."""
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = WORKLOADS[workload]
    try:
        if trace:
            results, values = traced(workload, seed, env, deadline)
        else:
            results, values = end_to_end(workload, seed, seconds, env, deadline)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(not r["problems"] for r in results)
    print("env " + json.dumps(results[0]["env"]))
    for r in results:
        norm = "" if r.get("command_norm_s") is None else (
            f" ({r['command_norm_s']:.3f} s normalised, kernel {r['kernel_mean_s'] * 1e3:.2f} ms)")
        print(f"command {' '.join(r['command'])}: {r['command_s']:.3f} s{norm}, "
              f"peak RSS {r['peak_rss_mb']:.1f} MB, set-up {r['setup_wall_s']:.3f} s, "
              f"{r['failed']}/{r['attempted']} failed" + "".join(f"\n  problem: {p}" for p in r["problems"]))
    walls = [r["command_s"] for r in results]
    if spec["kind"] == "riskmap":
        print(f"riskmap_s {statistics.median(walls):.4f} s")
    else:
        print(f"sim_replicates_per_s {spec['N'] / statistics.median(walls):.4f} 1/s")
    print(f"failed_frac {failed / attempted:.4f} ratio")
    print(f"mean_se_corrected {statistics.median(r['mean_se_corrected'] for r in results):.6g} 1")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="georisk benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so run_worker's cleanup stops the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "georisk" / "__init__.py").is_file():
        print(f"georisk sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = worker_env()
    units = declared_units(bool(args.trace))
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    codes = [run_workload(w, args.seed, args.seconds, args.trace, env, units) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
