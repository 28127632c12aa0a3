#!/usr/bin/env python3
"""Bootstraps and emulated cost per training step across level budgets.

For every ``max_level`` from 5 (the smallest a run config accepts) to 24,
runs 8 ``run_steps`` steps at the two north-star scales, with the
auto-bootstrap fallback off, and prints the ledger's bootstraps and
estimated milliseconds per step:

* test scale: 4096 slots (64 x 64 blocks), 3 classes, 16 features plus a
  bias column, batch 64;
* paper scale: 32768 slots (128 x 256 blocks), 10 classes, 768 features
  plus a bias column, batch 128.

Both draw ``make_gaussian_mixture(1024, classes, features + 1, 3,
mean_scale=0.1)`` and set the last column to 1 as the bias; learning rate
0.1.  Every refresh decision depends on levels and shapes only, so the
counts do not depend on the data values.

Run from the repository root::

    PYTHONPATH=src python3 scripts/budget_sweep.py
"""

from __future__ import annotations

from hefit.datasets import make_gaussian_mixture
from hefit.emulator import EmulatorContext
from hefit.training import run_steps

BUDGETS = range(5, 25)
STEPS = 8
# name: (slot_count, grid_rows, features, classes, batch)
SCALES = {
    "test": (4096, 64, 16, 3, 64),
    "paper": (32768, 128, 768, 10, 128),
}


def sweep_point(scale: str, max_level: int) -> tuple[float, float]:
    """(bootstraps, estimated ms) per step at one budget."""
    slots, grid_rows, features, classes, batch = SCALES[scale]
    x, y = make_gaussian_mixture(1024, classes, features + 1, 3, mean_scale=0.1)
    x[:, features] = 1.0  # bias column
    ctx = EmulatorContext(slots, grid_rows, max_level=max_level)
    run_steps(x, y, classes, STEPS, ctx=ctx, lr=0.1, batch_size=batch)
    return ctx.ledger.counts()["Bootstrap"] / STEPS, ctx.ledger.estimated_ms / STEPS


def main() -> None:
    header = "max_level"
    for scale in SCALES:
        header += f"  {scale + ' boots':>12}  {scale + ' ms':>12}"
    print(header)
    for max_level in BUDGETS:
        line = f"{max_level:>9}"
        for scale in SCALES:
            boots, ms = sweep_point(scale, max_level)
            line += f"  {boots:>12.3f}  {ms:>12.3f}"
        print(line, flush=True)


if __name__ == "__main__":
    main()
