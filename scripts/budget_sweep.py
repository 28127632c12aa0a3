#!/usr/bin/env python3
"""Bootstraps and emulated cost per training step across level budgets.

For every ``max_level`` from 5 (``training.MIN_MAX_LEVEL``, the smallest a
run config accepts) to 24, runs 8 ``run_steps`` steps at the two
north-star scales and at a third with 7 classes, with the auto-bootstrap
fallback off, as everywhere in the package (the refresh planner's dry
runs, ``approx.dry_run``, included), and prints the ledger's bootstraps
and estimated milliseconds per step, then the bootstraps per step of each
stage that places them: the softmax (``sm``), the residual refresh before
``diag_atb`` (``res``) and the packed W/V refresh (``wv``).  The next two
columns are shares of ``sm``, so they are not added to the step total
again: ``amax``, spent in the softmax's tournament ``a_max``, and
``inv``, in its reciprocal ``a_inv``.  The last, ``early``, counts the
refreshes per step that the softmax's plan takes although the level
suffices for the piece ahead (the True moves of
``approx.SoftmaxPlan.moves``), where its planning leaves greedy
refreshing.  The scales:

* test scale: 4096 slots (64 x 64 blocks), 3 classes, 16 features plus a
  bias column, batch 64;
* c7 scale: the test scale with 7 classes, a period of 8, so the
  softmax's tournament runs three rounds (two at test scale, four at
  paper scale);
* paper scale: 32768 slots (128 x 256 blocks), 10 classes, 768 features
  plus a bias column, batch 128.

All three draw ``make_gaussian_mixture(1024, classes, features + 1, 3,
mean_scale=0.1)`` and set the last column to 1 as the bias; learning rate
0.1.  Every refresh decision depends on levels and shapes only, so the
counts do not depend on the data values.

Run from the repository root::

    PYTHONPATH=src python3 scripts/budget_sweep.py
"""

from __future__ import annotations

from contextlib import ExitStack
from unittest import mock

from hefit import approx, training
from hefit.datasets import make_gaussian_mixture
from hefit.emulator import EmulatorContext
from hefit.training import run_steps

BUDGETS = range(training.MIN_MAX_LEVEL, 25)
STEPS = 8
# name: (slot_count, grid_rows, features, classes, batch)
SCALES = {
    "test": (4096, 64, 16, 3, 64),
    "c7": (4096, 64, 16, 7, 64),
    "paper": (32768, 128, 768, 10, 128),
}


# column label: (module, the module's name for the stage)
STAGES = {
    "sm": (training, "a_softmax"),
    "res": (training, "_refresh"),
    "wv": (training, "bootstrap_tiled"),
    "amax": (approx, "a_max"),
    "inv": (approx, "a_inv"),
}


def sweep_point(scale: str, max_level: int) -> tuple[float, float, dict[str, float]]:
    """(bootstraps, estimated ms, bootstraps by stage and early refreshes)
    per step at one budget."""
    slots, grid_rows, features, classes, batch = SCALES[scale]
    x, y = make_gaussian_mixture(1024, classes, features + 1, 3, mean_scale=0.1)
    x[:, features] = 1.0  # bias column
    ctx = EmulatorContext(slots, grid_rows, max_level=max_level)
    stage_boots = dict.fromkeys(STAGES, 0)

    def counted(label, fn):
        def run(*args, **kwargs):
            before = ctx.ledger.counts()["Bootstrap"]
            out = fn(*args, **kwargs)
            stage_boots[label] += ctx.ledger.counts()["Bootstrap"] - before
            return out

        return run

    def planned(*args, **kwargs):
        # the plan of an executed softmax: each early move is a refresh,
        # since the planner keeps no early move that lifts no level
        plan = softmax_plan(*args, **kwargs)
        stage_boots["early"] += sum(move is True for move in plan.moves)
        return plan

    softmax_plan = approx.softmax_plan
    stage_boots["early"] = 0
    with ExitStack() as stack:
        for label, (module, name) in STAGES.items():
            stage = counted(label, getattr(module, name))
            stack.enter_context(mock.patch.object(module, name, stage))
        stack.enter_context(mock.patch.object(approx, "softmax_plan", planned))
        run_steps(x, y, classes, STEPS, ctx=ctx, lr=0.1, batch_size=batch)
    per_stage = {label: n / STEPS for label, n in stage_boots.items()}
    return ctx.ledger.counts()["Bootstrap"] / STEPS, ctx.ledger.estimated_ms / STEPS, per_stage


def main() -> None:
    header = "max_level"
    for scale in SCALES:
        header += f"  {scale + ' boots':>12}  {scale + ' ms':>12}"
        header += "".join(f"  {label:>6}" for label in (*STAGES, "early"))
    print(header)
    for max_level in BUDGETS:
        line = f"{max_level:>9}"
        for scale in SCALES:
            boots, ms, per_stage = sweep_point(scale, max_level)
            line += f"  {boots:>12.3f}  {ms:>12.3f}"
            line += "".join(f"  {per_stage[label]:>6.3f}" for label in (*STAGES, "early"))
        print(line, flush=True)


if __name__ == "__main__":
    main()
