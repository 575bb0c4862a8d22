"""Run the criterion-02 study and record its figures as JSON.

    OPENBLAS_NUM_THREADS=1 python scripts/record_criterion02.py
    python scripts/record_criterion02.py --N 20 --out georisk-out/criterion02.json

The study is the one of ``test_criterion_02_table1_full_scale`` in
``tests/test_acceptance.py``: the full-scale table1 scenario (20 x 20
regular design, B = 1000, a 50 x 50 map, N = 1000 replicates), residual and
corrected modes, on two threads. The file holds each mode's mean squared
error, their ratio (residual over corrected), the failed replicates, the
wall time, the study's and the BLAS thread counts and the numpy version.
``gate_passed`` applies the criterion's gate (corrected mean SE within
0.022 +- 0.005, ratio in [1.4, 2.2]), which is set for N = 1000; a smaller
``--N`` is a quick run, not a record. Exits 1 when the study is invalid
(more than 5% of the replicates failed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from georisk.simulation import run_scenario, table1_scenario  # noqa: E402

MODES = ("residual", "corrected")


def record(n_replicates: int, threads: int) -> dict:
    scenario = table1_scenario("full", n_replicates=n_replicates)
    start = time.perf_counter()
    res = run_scenario(scenario, modes=MODES, threads=threads)
    wall = time.perf_counter() - start
    means = {row["mode"]: row["mean_se"] for row in res.rows}
    ratio = means["residual"] / means["corrected"]
    return {
        "study": "criterion 02: table1 full, residual and corrected modes",
        "seed": scenario.seed,
        "n_replicates": n_replicates,
        "corrected_mean_se": means["corrected"],
        "residual_mean_se": means["residual"],
        "ratio": ratio,
        "failures": res.n_failures,
        "valid": res.valid,
        "gate_passed": bool(
            res.valid and abs(means["corrected"] - 2.20e-2) <= 0.5e-2 and 1.4 <= ratio <= 2.2
        ),
        "wall_s": round(wall, 1),
        "threads": threads,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--N", type=int, default=1000, help="replicates (default 1000)")
    parser.add_argument("--threads", type=int, default=2, help="study threads (default 2)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_criterion02.json")
    args = parser.parse_args(argv)
    result = record(args.N, args.threads)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["valid"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
