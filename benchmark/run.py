"""hefit benchmark runner.

Run from the repository root::

    python3 benchmark/run.py --workload train-paper --seed 1 --seconds 20 --trace 0

It imports hefit from ``./src`` (never from an installed copy), generates
the workload's inputs from ``--seed``, measures for about ``--seconds``
seconds and checks every output.  With ``--trace 0`` it prints the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it runs an
untraced and a traced pass and prints the per-layer metrics.  The last
line of standard output is one JSON object; the exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import os

# Cap the BLAS/OpenMP pools before numpy loads: one closed-loop caller, one thread.
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

COLD_STARTS = 9
COLD_START_CODE = "import sys; sys.path.insert(0, 'src'); import numpy, hefit, hefit.cli"


def import_hefit(src: Path) -> None:
    """Put ``src`` first on the path and import hefit and its CLI from it."""
    package = src / "hefit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"benchmark: no hefit sources at {package}; run from the repository root")
    sys.path.insert(0, str(src))
    import hefit.cli  # noqa: F401

    loaded = Path(sys.modules["hefit"].__file__).resolve().parent
    if loaded != package.resolve():
        sys.exit(f"benchmark: imported hefit from {loaded}, expected {package}")


def cold_start_s(speed) -> float:
    """Median CPU seconds of a fresh interpreter that imports numpy, hefit and hefit.cli.

    Each start is its own process, so interpreter start-up and every import
    are cold.  The time is the child's user plus system CPU from rusage,
    divided by the host speed factor of ``speed``, sampled between starts.
    """
    times = []
    speed.sample()
    for _ in range(COLD_STARTS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", COLD_START_CODE], check=True, timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
        speed.sample()
    return median(times) / speed.factor()


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for the run and its children, so the host speed samples and the
    # work they scale run on the same virtual CPU (the two drift apart).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_hefit(Path("src"))
    import workloads  # needs hefit on the path
    from hostspeed import PYTHON_KERNEL_S, HostSpeed, python_kernel

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    trace = bool(args.trace)
    expected = declared_metrics(trace)

    job = workloads.WORKLOADS[args.workload](args.seed)
    cold_s = 0.0
    if not trace:  # setup_s is an end-to-end metric only
        start_speed = HostSpeed(python_kernel, PYTHON_KERNEL_S)
        cold_s = cold_start_s(start_speed)
        job.notes.append(start_speed.note("interpreter start-up"))
    result = job.execute(args.seconds, trace, cold_s)

    got = {name: unit for name, (_, unit) in result["metrics"].items()}
    if got != expected:
        sys.exit(f"benchmark: metrics {sorted(got.items())} do not match BENCHMARK.json "
                 f"{sorted(expected.items())}")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for note in job.notes:
        print(f"# {note}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:<34} {value:>16.6g} {unit}")
    result["metrics"] = {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
