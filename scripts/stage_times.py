#!/usr/bin/env python3
"""Host time per training step, stage by stage, at the two north-star scales.

Runs ``run_steps`` with every stage function rebound to a wrapper that adds
its CPU time (``time.process_time``) to the current step, and prints the
median over the steps, in milliseconds, of each stage and of the whole
step.  A stage's time includes everything it calls, so the softmax pieces
are inside ``a_softmax``, ``col_sums`` is inside ``diag_abt`` and the
softmax's column sums, and ``row_sums`` and ``prot_up`` are inside
``diag_atb``.  The two scales are those of ``scripts/budget_sweep.py``:

* test scale: 4096 slots (64 x 64 blocks), 3 classes, 16 features plus a
  bias column, batch 64;
* paper scale: 32768 slots (128 x 256 blocks), 10 classes, 768 features
  plus a bias column, batch 128.

Both draw ``make_gaussian_mixture(2048, classes, features + 1, 3,
mean_scale=0.1)`` and set the last column to 1 as the bias; learning rate
0.1, budget 12.  CPU time counts only this process, so a busy machine slows
the numbers less than it slows the wall clock; repeat and compare medians.

Run from the repository root::

    PYTHONPATH=src python3 scripts/stage_times.py
"""

from __future__ import annotations

import sys
import time
from contextlib import ExitStack
from statistics import median
from unittest import mock

from hefit import training
from hefit.datasets import make_gaussian_mixture
from hefit.emulator import EmulatorContext
from hefit.training import run_steps

STEPS = 16
# name: (slot_count, grid_rows, features, classes, batch)
SCALES = {
    "test": (4096, 64, 16, 3, 64),
    "paper": (32768, 128, 768, 10, 128),
}
# column label: (module, function)
STAGES = {
    "diag_abt": ("hefit.matmul", "diag_abt"),
    "a_softmax": ("hefit.approx", "a_softmax"),
    "a_max": ("hefit.approx", "a_max"),
    "extend": ("hefit.approx", "domain_extend"),
    "compens": ("hefit.approx", "_dep_compensation"),
    "a_exp": ("hefit.approx", "a_exp"),
    "a_inv": ("hefit.approx", "a_inv"),
    "diag_atb": ("hefit.matmul", "diag_atb"),
    "row_sums": ("hefit.encoding", "row_sums"),
    "col_sums": ("hefit.encoding", "col_sums"),
    "prot_up": ("hefit.encoding", "prot_up"),
    "boot_tiled": ("hefit.encoding", "bootstrap_tiled"),
}


def rebind_everywhere(stack: ExitStack, original, wrapper) -> None:
    """Point every loaded hefit module's name for ``original`` at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hefit" or mod_name.startswith("hefit.")):
            continue
        for attr, held in list(vars(mod).items()):
            if held is original:
                stack.enter_context(mock.patch.object(mod, attr, wrapper))


def stage_times(scale: str) -> dict[str, float]:
    """Median CPU ms per step of each stage and of the whole step ("step")."""
    slots, grid_rows, features, classes, batch = SCALES[scale]
    x, y = make_gaussian_mixture(2048, classes, features + 1, 3, mean_scale=0.1)
    x[:, features] = 1.0  # bias column
    ctx = EmulatorContext(slots, grid_rows, max_level=12)
    steps: list[dict[str, float]] = []

    def timed(label, fn):
        def run(*args, **kwargs):
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                steps[-1][label] += time.process_time() - start

        return run

    def step(*args, **kwargs):
        steps.append(dict.fromkeys(["step", *STAGES], 0.0))
        return timed("step", nag_step)(*args, **kwargs)

    nag_step = training.nag_step
    with ExitStack() as stack:
        for label, (mod_name, name) in STAGES.items():
            original = getattr(sys.modules[mod_name], name)
            rebind_everywhere(stack, original, timed(label, original))
        stack.enter_context(mock.patch.object(training, "nag_step", step))
        run_steps(x, y, classes, STEPS, ctx=ctx, lr=0.1, batch_size=batch)
    return {label: median(s[label] for s in steps) * 1e3 for label in steps[0]}


def main() -> None:
    labels = ["step", *STAGES]
    print(f"{'scale':>5}" + "".join(f"  {label:>10}" for label in labels))
    for scale in SCALES:
        ms = stage_times(scale)
        print(f"{scale:>5}" + "".join(f"  {ms[label]:>10.3f}" for label in labels), flush=True)


if __name__ == "__main__":
    main()
