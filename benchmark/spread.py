"""Run the benchmark on consecutive seeds and report each end-to-end metric's spread.

Run from the repository root::

    python3 benchmark/spread.py --first-seed 1 --out benchmark/baseline.json

It runs every workload of BENCHMARK.json on ten consecutive seeds, each
run lasting BENCHMARK.json's ``run_seconds``.  For every workload and
end-to-end metric it prints the median and the spread, (Q3 - Q1) / median
with the quartiles of ``statistics.quantiles(values, n=4)``, next to the
metric's bound from BENCHMARK.json.  A spread at or above a third of the
bound is flagged.  Runs go round-robin over the workloads, one process at
a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from run import THREAD_CAPS

RUN_TIMEOUT_S = 180
RUNS = 10


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {var: "1" for var in THREAD_CAPS},
    }


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported failed checks:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the values and spreads as JSON")
    args = parser.parse_args(argv)
    seeds = list(range(args.first_seed, args.first_seed + RUNS))

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in seeds:
        for w in workloads:
            for name, v in run_once(w, seed, seconds).items():
                values[w].setdefault(name, []).append(v)
            print(f"done {w} seed {seed}", file=sys.stderr, flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in workloads:
        print(f"\n{w}")
        rows = {}
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            care = spread >= bounds[name] / 3
            rows[name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name], "needs_care": care}
            flag = "  <-- spread >= bound/3" if care else ""
            print(f"  {name:<24} median {med:>14.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[name]:.3f}{flag}")
        report["workloads"][w] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
