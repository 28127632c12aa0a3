"""Host speed of the benchmark process, from a reference kernel timed between pieces of work.

The benchmark shares a few cores of a host with other guests.  Their load
slows this process for seconds to minutes at a time, by up to 1.7x, and
even the fastest of a run's repeats slowed with it, so no statistic of the
program's own times stays steady from run to run.  A fixed reference
kernel, timed in the same process on the same CPU, slows the same way.
Each unit of work is divided by its *speed factor*: the median time of the
kernel samples taken just before, inside and just after the unit, over the
kernel's time on the reference host; a step or chunk inside it is divided
by the two samples around it.  Host times are therefore reported in
seconds of a host as fast as the reference host.

The kernels are the benchmark's own code, never hefit's, so a change to
hefit cannot move the factor.  Each workload uses the kernel that its time
tracked best under load: the interpreter-bound loop for the emulator
workloads and for interpreter start-up, the memory-bound array softmax for
the Monte Carlo workload.  On the 2-vCPU host of the baseline, the
quartile spread (over the median) of ten 30-second runs of identical work
reached 0.27 with raw host times; divided as here, 0.04-0.11 (baseline.json
and baseline-seeds11-20.json).  Interpreter start-up does not follow the
kernel as closely (correlation 0.2-0.4), so setup_s stays the noisiest.
"""

from __future__ import annotations

from statistics import median

import numpy as np

from tracer import host_clock

SAMPLE_EVERY_S = 0.25  # host seconds of work between samples inside a unit
PYTHON_LOOP = 200_000
ARRAY_SHAPE = (250_000, 10)  # one Monte Carlo chunk of the softmax-mc workload


def python_kernel() -> None:
    """Interpreter-bound work, like the emulator's per-call overhead."""
    total = 0
    for i in range(PYTHON_LOOP):
        total += i * i


class ArrayKernel:
    """Memory-bound work, like one Monte Carlo chunk: a softmax over a 20 MB array."""

    def __init__(self):
        self.block = np.random.default_rng(0).uniform(-8.0, 8.0, ARRAY_SHAPE)

    def __call__(self) -> None:
        x = self.block
        y = np.exp(x - x.max(axis=1, keepdims=True))
        y /= y.sum(axis=1, keepdims=True)


# Kernel times on the reference host: the baseline machine (see baseline.json)
# in its quietest minutes.
PYTHON_KERNEL_S = 0.012
ARRAY_KERNEL_S = 0.036


class HostSpeed:
    """Times one reference kernel between pieces of work and turns the times into speed factors."""

    def __init__(self, kernel, reference_s: float):
        self.kernel = kernel
        self.reference_s = reference_s
        self.samples: list[float] = []
        self.last = host_clock()

    def sample(self) -> float:
        """Time the kernel once; returns the host seconds it took."""
        start = host_clock()
        self.kernel()
        self.last = host_clock()
        self.samples.append(self.last - start)
        return self.samples[-1]

    def sample_if_due(self) -> float:
        """Sample if SAMPLE_EVERY_S host seconds passed since the last sample; returns the seconds spent."""
        return self.sample() if host_clock() - self.last >= SAMPLE_EVERY_S else 0.0

    def factor(self, since: int = 0, until: int | None = None) -> float:
        """Median time of the samples ``since:until`` over the kernel's reference time.

        2.0 means the host ran at half the reference host's speed.
        """
        return median(self.samples[since:until]) / self.reference_s

    def note(self, what: str) -> str:
        return (f"host speed for {what}: median kernel {median(self.samples) * 1e3:.2f} ms "
                f"over {len(self.samples)} samples, reference {self.reference_s * 1e3:.1f} ms, "
                f"factor {self.factor():.3f}")
