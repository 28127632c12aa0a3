"""Smoke tests for the measuring scripts under ``scripts/``.

The scripts rebind hefit functions by name to count or time the stages, so
a rename in ``src/`` breaks them; these checks make it break the test suite
first.  Each runs one cheap point of its script: one budget at test scale.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_budget_sweep_point_is_pinned():
    # bootstraps and emulated ms per test-scale step at budget 12, and the
    # bootstraps of each stage that places them (ROADMAP's open items)
    boots, ms, per_stage = _load("budget_sweep").sweep_point("test", 12)
    assert boots == 6.125
    assert ms == pytest.approx(1242.814375, rel=1e-12)
    assert per_stage == {"sm": 5.125, "res": 0.75, "wv": 0.25, "amax": 2.0, "inv": 1.0}


def test_stage_times_sees_every_stage():
    # host times vary; which stages ran in how many steps does not.  At
    # budget 12 the packed W/V refresh and diag_atb's partial-rotation
    # branch run in 4 of the 16 steps, every other stage in all of them:
    # the kernels' masked totals ("passes") and the softmax's col_sums too
    stage_times = _load("stage_times")
    times = stage_times.stage_times("test")
    assert list(times) == [
        "step", "diag_abt", "a_softmax", "a_max", "extend", "compens", "a_exp", "a_inv",
        "diag_atb", "passes", "col_sums", "prot_up", "boot_tiled",
    ]
    ran = {label: n for label, (_, n) in times.items()}
    sparse = {"boot_tiled": 4, "prot_up": 4}
    assert ran == {label: sparse.get(label, stage_times.STEPS) for label in times}
