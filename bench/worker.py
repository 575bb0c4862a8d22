"""Run one benchmark workload in a fresh interpreter.

The launcher (``run.py``) starts this script once per measured command, so
``georisk.simulation._context_cache`` starts cold and ``ru_maxrss`` covers
one workload only. The worker

1. imports georisk and generates the workload's inputs from ``--seed``,
   then prints ``READY`` (the launcher times set-up up to that line);
2. runs the georisk command in-process, traced with ``--trace``;
3. checks the outputs and prints one JSON line with the command's wall
   time, peak RSS, the check result and, when traced, the layer metrics.

It runs in the workload's work directory, so every path it writes is
relative. ``--record`` stores the checked facts of the default seed in
``references.json`` instead of comparing them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from speed import SpeedProbe, normalise
from tracer import LAYERS, Tracer, percentile, replicate_times, root_coverage, summarize

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "references.json"
DEFAULT_SEED = 1
FAILURE_GATE = 0.05  # georisk.simulation.FAILURE_GATE
MODEL_REL_TOL = 1e-12  # ROADMAP aim 2: fitted curves agree to 1e-12 relative
PRINTED_REL_TOL = 1e-11  # floats printed with 12 significant digits

# The risk map always reads the ROADMAP's n = 1053 data set (synth-data seed
# 1), the stand-in for the paper's real data; the benchmark seed s sets its
# bootstrap seed s + 6. Simulations use study seed s + 20239. So s = 1 gives
# the ROADMAP configuration: bootstrap seed 7 and the default study seed.
WORKLOADS = {
    "riskmap-n1053": {"kind": "riskmap", "n": 1053, "data_seed": 1, "B": 1000,
                      "grid": "50x50", "thresholds": "1.0,2.0", "seed_offset": 6},
    "sim-table1-full": {"kind": "simulate", "scenario": "table1", "scale": "full",
                        "N": 12, "seed_offset": 20239},
    "sim-table3-desk": {"kind": "simulate", "scenario": "table3", "scale": "desk",
                        "N": 100, "seed_offset": 20239},
}


def command_argv(spec: dict, seed: int) -> list:
    program_seed = str(seed + spec["seed_offset"])
    if spec["kind"] == "riskmap":
        return [
            "riskmap", "--input", "input/synthetic.csv", "--transform", "sqrt",
            "--thresholds", spec["thresholds"], "--replicates", str(spec["B"]),
            "--grid", spec["grid"], "--seed", program_seed, "--out", "out",
            "--threads", "1",
        ]
    return [
        "simulate", "--scenario", spec["scenario"], "--scale", spec["scale"],
        "--N", str(spec["N"]), "--seed", program_seed, "--out", "out", "--threads", "1",
    ]


def setup(spec: dict, cli) -> None:
    if spec["kind"] == "riskmap":
        code = cli.main(["synth-data", "--n", str(spec["n"]), "--seed",
                         str(spec["data_seed"]), "--out", "input"])
        if code != 0:
            raise SystemExit(f"synth-data failed with exit code {code}")


# -- output checks ------------------------------------------------------------


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def synth_truth(x: float, y: float, c: float) -> float:
    """Closed-form P(sqrt(Y) >= c), c > 0, for ``georisk.io.synth_dataset``:
    Y = max(0, trend + field)^2 with a Gaussian field of variance
    0.01 + 0.09, so sqrt(Y) >= c exactly when trend + field >= c."""
    trend = (
        1.6 + 0.9 * math.sin(math.pi * x / 30.0) * math.cos(math.pi * y / 15.0)
        + 0.02 * y
    )
    return _normal_cdf((trend - c) / math.sqrt(0.1))


def _read_grid_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    xy = [(float(r["x"]), float(r["y"])) for r in rows]
    probs = np.array([math.nan if r["probability"] == "NA" else float(r["probability"])
                      for r in rows])
    return xy, probs


def check_riskmap(spec: dict, code: int):
    """(problems, mean_se_corrected, facts) for one riskmap command."""
    if code != 0:
        return [f"riskmap exited with code {code}"], math.nan, {}
    out = Path("out")
    report = json.loads((out / "riskmap_report.json").read_text(encoding="utf-8"))
    thresholds = [float(c) for c in report["thresholds"]]
    problems = []
    maps, digests = [], {}
    for c, name in zip(thresholds, [f for f in report["files"] if f.endswith(".csv")]):
        digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
        maps.append((c, *_read_grid_csv(out / name)))
    nx, ny = (int(v) for v in spec["grid"].split("x"))
    if len(maps) != len(thresholds):
        problems.append(f"{len(maps)} map files for {len(thresholds)} thresholds")
    squared = []
    masks = []
    for c, xy, probs in maps:
        if len(probs) != nx * ny or xy != maps[0][1]:
            problems.append(f"map c={c:g} does not cover the {nx}x{ny} grid")
            continue
        mask = np.isnan(probs)
        masks.append(mask)
        live = probs[~mask]
        if live.size and (live.min() < 0.0 or live.max() > 1.0):
            problems.append(f"map c={c:g} has probabilities outside [0, 1]")
        truth = np.array([synth_truth(x, y, c) for (x, y) in xy])
        squared.append((truth[~mask] - live) ** 2)
    for mask in masks:
        if not np.array_equal(mask, masks[0]) or int(mask.sum()) != report["masked_nodes"]:
            problems.append("NaN nodes differ from the reported masked nodes")
            break
    ordered = sorted(maps, key=lambda m: m[0])
    for (c_lo, _, p_lo), (c_hi, _, p_hi) in zip(ordered, ordered[1:]):
        both = ~np.isnan(p_lo) & ~np.isnan(p_hi)
        if np.any(p_hi[both] > p_lo[both]):
            problems.append(f"probability rises from c={c_lo:g} to c={c_hi:g}")
    mean_se = float(np.concatenate(squared).mean()) if squared else math.nan
    report["config"].pop("out", None)
    facts = {"csv_sha256": digests, "report": report, "mean_se_corrected": mean_se}
    return problems, mean_se, facts


def check_simulate(spec: dict, code: int):
    """(problems, mean_se_corrected, facts, failures) for one simulate command."""
    if code not in (0, 5):
        return [f"simulate exited with code {code}"], math.nan, {}, spec["N"]
    out = Path("out")
    with open(out / "results.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    runs = json.loads((out / "results.json").read_text(encoding="utf-8"))["runs"]
    failures = sum(int(run["failures"]) for run in runs)
    problems = []
    if code == 5 or failures > FAILURE_GATE * spec["N"]:
        problems.append(f"{failures} of {spec['N']} replicates failed (gate 5%)")
    if {r["mode"] for r in rows} != {"theoretical", "residual", "corrected"}:
        problems.append("results.csv lacks a covariance mode")
    for r in rows:
        se = float(r["mean_se"])
        if not 0.0 <= se <= 1.0:
            problems.append(f"mean_se {r['mean_se']} of mode {r['mode']} is outside [0, 1]")
        if int(r["N"]) != spec["N"] or int(r["failures"]) != failures:
            problems.append("results.csv disagrees with the run")
    corrected = [float(r["mean_se"]) for r in rows if r["mode"] == "corrected"]
    mean_se = float(np.mean(corrected)) if corrected else math.nan
    facts = {"results_csv": rows, "failures": failures, "mean_se_corrected": mean_se}
    return problems, mean_se, facts, failures


def _close(a: float, b: float, rel: float) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def compare(ref, got, path="") -> list:
    """Differences between recorded and observed facts. Floats must match
    exactly, except the variogram model floats (ROADMAP aim-2 tolerance),
    numbers printed in results.csv and the benchmark's own mean SE."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(ref)} != {sorted(got)}"]
        return [d for k in ref for d in compare(ref[k], got[k], f"{path}/{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: {len(ref)} entries recorded, {len(got)} found"]
        return [d for k, (a, b) in enumerate(zip(ref, got)) for d in compare(a, b, f"{path}/{k}")]
    if path.startswith("/results_csv/") and isinstance(ref, str):
        try:
            ref, got = float(ref), float(got)
        except ValueError:
            return [] if ref == got else [f"{path}: {ref!r} != {got!r}"]
        return [] if _close(ref, got, PRINTED_REL_TOL) else [f"{path}: {ref!r} != {got!r}"]
    if isinstance(ref, float) and isinstance(got, float):
        tolerant = path.endswith(("model/nugget", "model/sill", "mean_se_corrected"))
        if _close(ref, got, MODEL_REL_TOL if tolerant else 0.0):
            return []
    elif ref == got and type(ref) is type(got):
        return []
    return [f"{path}: recorded {ref!r}, found {got!r}"]


# -- layer metrics --------------------------------------------------------------

TIMED = (
    "variogram.select_lag_bandwidth", "trend.select_bandwidth",
    "bootstrap.replicate_values", "variogram.semivariance",
    "variogram.empirical_variogram", "variogram.bias_matrix",
    "variogram.pseudo_covariances", "variogram.fit_shapiro_botha",
    "numerics.cholesky", "numerics.nnls", "kriging.covariance_to_targets",
    "geometry.pairwise_distances", "geometry.cross_distances",
    "trend.prediction_weights", "bootstrap.rng_stream", "io.ingest_csv",
    "bootstrap.fit_pipeline", "bootstrap.risk_maps",
)
TOP_LEVEL_PEAKS = ("bootstrap.fit_pipeline", "bootstrap.risk_maps", "simulation.run_scenario")


def layer_metrics(tracer) -> dict:
    stats = summarize(tracer.spans)

    def total(name, key="s"):
        return stats.get(name, {}).get(key, 0.0)

    m = {f"{name}.s": total(name) for name in TIMED}
    m["numerics.triangular_solve.s"] = total("numerics.solve_lower") + total("numerics.solve_lower_t")
    m["io.write.s"] = sum(v["s"] for k, v in stats.items() if k.startswith("io.write_"))
    m["simulation.run_scenario.self_s"] = total("simulation.run_scenario", "self_s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in stats.items()
                                   if k.startswith(layer + "."))
    m["variogram.bias_matrix.calls"] = total("variogram.bias_matrix", "calls")
    m["numerics.cholesky.calls"] = total("numerics.cholesky", "calls")
    counts = tracer.counts
    m["numerics.cholesky.ridged"] = counts["numerics.cholesky.ridged"]
    m["bootstrap.replicates"] = counts["bootstrap.replicates"]
    m["variogram.loo_pairs"] = counts["variogram.loo_pairs"]
    m["trend.candidates_scored"] = counts["trend.candidates_scored"]
    offered = counts["trend.candidates_offered"]
    m["trend.admissible_frac"] = counts["trend.candidates_scored"] / offered if offered else 0.0
    reps = replicate_times(tracer.spans)
    m["simulation.replicate_p50_s"] = percentile(reps, 50)
    m["simulation.replicate_p90_s"] = percentile(reps, 90)
    m["simulation.replicate_samples"] = len(reps)
    for name in TOP_LEVEL_PEAKS:
        peaks = [s.peak_mb for s in tracer.spans if s.name == name and s.peak_mb is not None]
        m[f"{name}.peak_alloc_mb"] = max(peaks, default=0.0)
    m["trace.spans"] = len(tracer.spans)
    m["trace.top_coverage"] = root_coverage(tracer.spans)
    return m


# -- main ---------------------------------------------------------------------------


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    import georisk.cli as cli

    setup(spec, cli)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    shutil.rmtree("out", ignore_errors=True)
    argv_cmd = command_argv(spec, args.seed)
    # The speed probe runs only untraced: its kernel time would land in
    # the spans of the traced layers.
    tracer = probe = None
    with contextlib.ExitStack() as stack:
        if args.trace:
            tracer = stack.enter_context(Tracer(memory=True))
        else:
            probe = stack.enter_context(SpeedProbe())
        t0 = time.perf_counter()
        code = cli.main(argv_cmd)
        wall = time.perf_counter() - t0 - (probe.inside_s if probe else 0.0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if spec["kind"] == "riskmap":
        problems, mean_se, facts = check_riskmap(spec, code)
        attempted, failed = 1, int(code != 0)
    else:
        problems, mean_se, facts, failed = check_simulate(spec, code)
        attempted = spec["N"]
    if args.record:
        if args.seed != DEFAULT_SEED or problems:
            raise SystemExit(f"refusing to record: seed {args.seed}, problems {problems}")
        refs = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
        refs[args.workload] = facts
        REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    elif args.seed == DEFAULT_SEED and facts:
        refs = json.loads(REFERENCE_FILE.read_text())
        if args.workload not in refs:
            problems.append("no reference recorded for this workload")
        else:
            problems += compare(refs[args.workload], facts)
    if problems:
        failed = attempted

    result = {
        "command": ["georisk", *argv_cmd],
        "exit_code": code,
        "command_s": wall,
        "command_norm_s": normalise(wall, probe.samples) if probe else None,
        "kernel_mean_s": sum(probe.samples) / len(probe.samples) if probe else None,
        "probe_samples": len(probe.samples) if probe else 0,
        "peak_rss_mb": rss_mb,
        "mean_se_corrected": mean_se,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        tracer.write_jsonl("spans.jsonl", header={"workload": args.workload,
                                                  "seed": args.seed, **result["env"]})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
