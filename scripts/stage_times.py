#!/usr/bin/env python3
"""Host time per training step, stage by stage, at the two north-star scales.

Runs ``run_steps`` with every stage function rebound to a wrapper that
adds its CPU time (``time.process_time``) to the current step, and prints,
for each stage and for the whole step, two rows per scale: ``ms``, the
median in milliseconds over the steps in which the stage ran (``-`` if it
never ran), and ``n``, the number of the ``STEPS`` steps it ran in.  Some
stages run in few steps: at budget 12 the packed W/V refresh
(``boot_tiled``) runs in 2 of the 16 paper-scale steps (11 at test
scale), and ``diag_atb``'s partial-rotation branch (``prot_up``) in 7 (13
at test scale), so a median over all steps would read 0 for them.  A stage's time includes everything it calls, so the
softmax pieces and ``col_sums`` (the softmax's row totals) are inside
``a_softmax``, and ``passes`` is inside both kernels: once per call of
``diag_abt`` and once per block column of ``diag_atb``, whose ``prot_up``
runs once per block column and pass.  ``passes`` is the kernels' masked
totals (``encoding.place_passes``), which the emulator computes on one
period of the result (``EmulatorContext.place_passes``); the softmax
runs on the first period copy of each row of its tiled input and tiles
its output once (``EmulatorContext.row_width``), so ``col_sums`` totals
that copy's exps with the closed form of ladders that stay inside one
period (``EmulatorContext.totals`` with the period as its segment width),
and the re-tiling inside ``boot_tiled``
runs that of a masked copy (``EmulatorContext.spread``).  The two scales
are the test and paper scales of ``scripts/budget_sweep.py``:

* test scale: 4096 slots (64 x 64 blocks), 3 classes, 16 features plus a
  bias column, batch 64;
* paper scale: 32768 slots (128 x 256 blocks), 10 classes, 768 features
  plus a bias column, batch 128.

Both draw ``make_gaussian_mixture(2048, classes, features + 1, 3,
mean_scale=0.1)`` and set the last column to 1 as the bias; learning rate
0.1, budget 12.  The last rows, ``array``, time the softmax's numpy
array path as ``softmax-mc`` runs it: one ``a_softmax`` call (its "step")
on a seeded 250 000 x 10 uniform input within +-128 under ``DEFAULTS``,
over ARRAY_CALLS calls.  ``run_steps`` plans every step's refreshes
before the first step (``training.plan_steps``, cached), and the planner's
dry runs (``approx.dry_run``) call the stages; that time is not counted.  Medians, not
means, are shown.  CPU time
counts only this process, so a busy machine slows the numbers less than it
slows the wall clock; repeat and compare medians.

Run from the repository root::

    PYTHONPATH=src python3 scripts/stage_times.py
"""

from __future__ import annotations

import sys
import time
from contextlib import ExitStack
from statistics import median
from unittest import mock

import numpy as np

from hefit import approx, training
from hefit.approx import DEFAULTS
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
    "passes": ("hefit.encoding", "place_passes"),
    "col_sums": ("hefit.encoding", "col_sums"),
    "prot_up": ("hefit.encoding", "prot_up"),
    "boot_tiled": ("hefit.encoding", "bootstrap_tiled"),
}
# the array rows: softmax-mc's chunk shape
ARRAY_SHAPE, ARRAY_CALLS = (250_000, 10), 5


def rebind_everywhere(stack: ExitStack, original, wrapper) -> None:
    """Point every loaded hefit module's name for ``original`` at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hefit" or mod_name.startswith("hefit.")):
            continue
        for attr, held in list(vars(mod).items()):
            if held is original:
                stack.enter_context(mock.patch.object(mod, attr, wrapper))


def timed_stages(stack: ExitStack, steps: list[dict[str, float]]):
    """Rebind every stage to a wrapper that adds its CPU time to ``steps[-1]``,
    a stage's key present once it has run; before the first step (while
    ``run_steps`` plans) a stage is not timed.  Returns the wrapper
    factory, for the caller's own "step"."""

    def timed(label, fn):
        def run(*args, **kwargs):
            if not steps:
                return fn(*args, **kwargs)
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                step = steps[-1]
                step[label] = step.get(label, 0.0) + time.process_time() - start

        return run

    for label, (mod_name, name) in STAGES.items():
        original = getattr(sys.modules[mod_name], name)
        rebind_everywhere(stack, original, timed(label, original))
    return timed


def medians_ms(steps: list[dict[str, float]]) -> dict[str, tuple[float | None, int]]:
    """Per label: the median ms over the steps it ran in (None if none), and
    how many steps that is."""
    out = {}
    for label in ["step", *STAGES]:
        ran = [s[label] for s in steps if label in s]
        out[label] = (median(ran) * 1e3 if ran else None, len(ran))
    return out


def new_step(steps: list[dict[str, float]]) -> None:
    steps.append({})


def stage_times(scale: str) -> dict[str, tuple[float | None, int]]:
    """Median CPU ms of each stage and of the whole step ("step") over the
    steps each ran in, and how many steps that is."""
    slots, grid_rows, features, classes, batch = SCALES[scale]
    x, y = make_gaussian_mixture(2048, classes, features + 1, 3, mean_scale=0.1)
    x[:, features] = 1.0  # bias column
    ctx = EmulatorContext(slots, grid_rows, max_level=12)
    steps: list[dict[str, float]] = []
    nag_step = training.nag_step
    with ExitStack() as stack:
        timed = timed_stages(stack, steps)

        def step(*args, **kwargs):
            new_step(steps)
            return timed("step", nag_step)(*args, **kwargs)

        stack.enter_context(mock.patch.object(training, "nag_step", step))
        run_steps(x, y, classes, STEPS, ctx=ctx, lr=0.1, batch_size=batch)
    return medians_ms(steps)


def array_stage_times() -> dict[str, tuple[float | None, int]]:
    """:func:`stage_times` of array-path ``a_softmax`` calls."""
    x = np.random.default_rng(1).uniform(-128.0, 128.0, size=ARRAY_SHAPE)
    steps: list[dict[str, float]] = []
    with ExitStack() as stack:
        timed = timed_stages(stack, steps)
        for _ in range(ARRAY_CALLS):
            new_step(steps)
            timed("step", approx.a_softmax)(x, DEFAULTS)
    return medians_ms(steps)


def print_rows(name: str, times: dict[str, tuple[float | None, int]]) -> None:
    """The ``ms`` and ``n`` rows of one scale."""
    ms = "".join(f"  {'-' if t is None else f'{t:.3f}':>10}" for t, _ in times.values())
    print(f"{name + ' ms':>8}{ms}")
    print(f"{name + ' n':>8}" + "".join(f"  {n:>10}" for _, n in times.values()), flush=True)


def main() -> None:
    print(f"{'scale':>8}" + "".join(f"  {label:>10}" for label in ["step", *STAGES]))
    for scale in SCALES:
        print_rows(scale, stage_times(scale))
    print_rows("array", array_stage_times())


if __name__ == "__main__":
    main()
